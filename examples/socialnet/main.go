// Socialnet: influencer tracking over a wiki-talk-style social
// stream — the paper's motivating scenario for input-aware updates.
//
// The stream (the synthetic wiki profile) starts low-degree (ABR
// keeps reordering off) and turns hub-heavy after its warmup, at
// which point ABR flips to the reordered+USC mode. OCA aggregates
// compute rounds once consecutive batches overlap enough.
//
//	go run ./examples/socialnet
package main

import (
	"fmt"
	"sort"

	"streamgraph"
	"streamgraph/internal/gen"
)

func main() {
	profile, err := gen.ProfileByName("wiki")
	if err != nil {
		panic(err)
	}
	// Shrink the warmup so the regime change happens mid-demo.
	profile.WarmupEdges = 60000
	stream := gen.NewStream(profile)

	sys := streamgraph.New(streamgraph.Config{
		Vertices:  profile.Vertices,
		Analytics: streamgraph.AnalyticsPageRank,
		Policy:    streamgraph.Adaptive, // the paper's sampled ABR
		ABR:       streamgraph.ABRParams{N: 2, Lambda: 256, TH: 465},
	})

	const batchSize = 10000
	fmt.Println("streaming wiki-talk-style batches; watch ABR flip as the stream turns hub-heavy")
	fmt.Printf("%-6s %-10s %-9s %-10s %-9s %s\n", "batch", "reordered", "CAD", "locality", "rounds", "update")
	for i := 0; i < 14; i++ {
		res, err := sys.ApplyBatch(stream.NextBatch(batchSize).Edges)
		if err != nil {
			panic(err)
		}
		cad := "-"
		if res.Instrumented {
			cad = fmt.Sprintf("%.0f", res.CAD)
		}
		fmt.Printf("%-6d %-10v %-9s %-10.2f %-9d %s\n",
			res.BatchID, res.Reordered, cad, res.Locality, res.ComputedBatches, res.Update)
	}
	sys.Flush()

	ranks := sys.Ranks()
	type vr struct {
		v int
		r float64
	}
	var top []vr
	for v, r := range ranks {
		top = append(top, vr{v, r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("\ncurrent top influencers (PageRank):")
	for _, e := range top[:8] {
		fmt.Printf("  user %-7d rank %.6f  (in-degree %d)\n",
			e.v, e.r, sys.Graph().InDegree(streamgraph.VertexID(e.v)))
	}
}

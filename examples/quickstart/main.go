// Quickstart: build an input-aware streaming graph system, feed it a
// few batches, and watch ABR's decisions while PageRank stays fresh.
// An attached observer records a per-batch decision trace, summarized
// at the end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"streamgraph"
)

func main() {
	const vertices = 20000
	observer := streamgraph.NewObserver(0) // 0 → default ring size
	sys := streamgraph.New(streamgraph.Config{
		Vertices:  vertices,
		Analytics: streamgraph.AnalyticsPageRank,
		// The paper's sampled ABR (the default reorders every batch),
		// instrumenting every other batch so the demo shows it
		// reacting to the alternating batch character.
		Policy:   streamgraph.Adaptive,
		ABR:      streamgraph.ABRParams{N: 2, Lambda: 256, TH: 465},
		Observer: observer,
	})

	rng := rand.New(rand.NewSource(42))
	const batchSize = 5000

	fmt.Println("streaming 8 batches of", batchSize, "edges...")
	for i := 0; i < 8; i++ {
		// Batches alternate character: odd batches scatter edges
		// uniformly (reordering-adverse), even batches slam a hub
		// (reordering-friendly). ABR reacts to what it measures.
		edges := make([]streamgraph.Edge, batchSize)
		for j := range edges {
			src := streamgraph.VertexID(rng.Intn(vertices))
			dst := streamgraph.VertexID(rng.Intn(vertices))
			if i%2 == 0 && j%3 != 0 {
				dst = 7 // the hub
			}
			if src == dst {
				src = (src + 1) % vertices
			}
			edges[j] = streamgraph.Edge{Src: src, Dst: dst, Weight: 1}
		}
		res, err := sys.ApplyBatch(edges)
		if err != nil {
			panic(err)
		}
		fmt.Printf("batch %d: reordered=%-5v instrumented=%-5v CAD=%-8.1f update=%-10s compute=%s\n",
			res.BatchID, res.Reordered, res.Instrumented, res.CAD, res.Update, res.Compute)
	}
	sys.Flush()

	fmt.Printf("\ngraph: %d vertices, %d edges\n", sys.NumVertices(), sys.NumEdges())

	ranks := sys.Ranks()
	type vr struct {
		v streamgraph.VertexID
		r float64
	}
	var top []vr
	for v, r := range ranks {
		top = append(top, vr{streamgraph.VertexID(v), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("\ntop 5 PageRank vertices:")
	for _, e := range top[:5] {
		fmt.Printf("  v%-6d %.6f\n", e.v, e.r)
	}

	// The observer kept a decision trace for every batch: which mode
	// ABR picked (and the CAD it compared against TH), what OCA did
	// with the compute round, and how long each stage took.
	fmt.Println("\nper-batch decision trace:")
	for _, tr := range observer.Traces.Last(0) {
		mode := "plain"
		if tr.Reordered {
			mode = "reorder"
		}
		round := "computed"
		if tr.ComputeDeferred {
			round = "deferred"
		} else if tr.AggregatedBatches > 1 {
			round = fmt.Sprintf("aggregated×%d", tr.AggregatedBatches)
		}
		fmt.Printf("  batch %d: engine=%-8s mode=%-7s cad=%-7.1f (TH=%.0f)  locality=%.2f  %s  update=%s compute=%s\n",
			tr.BatchID, tr.Engine, mode, tr.CAD, tr.CADThreshold,
			tr.Locality, round,
			tr.SpanDur("update").Round(time.Microsecond),
			tr.SpanDur("compute").Round(time.Microsecond))
	}
}

// Command sgreplay replays a recorded binary edge trace (sggen
// -format binary, or a production capture) through the streaming
// pipeline under a chosen policy, printing per-batch metrics —
// the tool for reproducing a production incident offline.
//
// Usage:
//
//	sggen -dataset wiki -edges 500000 -format binary > wiki.sgedge
//	sgreplay -batch 10000 -policy adaptive < wiki.sgedge
//	sgreplay -batch 10000 -policy reorder -analytics pagerank < wiki.sgedge
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"streamgraph/internal/compute"
	"streamgraph/internal/graph"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/trace"
)

func main() {
	var (
		batch     = flag.Int("batch", 10000, "input batch size")
		policy    = flag.String("policy", "adaptive", "adaptive | baseline | reorder")
		analytics = flag.String("analytics", "none", "none | pagerank | sssp")
		source    = flag.Uint("source", 0, "SSSP source vertex")
		useOCA    = flag.Bool("oca", false, "enable compute aggregation")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()

	r, err := trace.NewReader(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgreplay:", err)
		os.Exit(2)
	}

	cfg := pipeline.Config{Workers: *workers, OCA: oca.Config{Disabled: !*useOCA}}
	switch *policy {
	case "adaptive":
		cfg.Policy = pipeline.ABRUSC
	case "baseline":
		cfg.Policy = pipeline.Baseline
	case "reorder":
		cfg.Policy = pipeline.AlwaysROUSC
	default:
		fmt.Fprintf(os.Stderr, "sgreplay: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	switch *analytics {
	case "pagerank":
		cfg.Compute = &compute.PageRank{Incremental: true, Workers: *workers}
	case "sssp":
		cfg.Compute = &compute.SSSP{Incremental: true, Workers: *workers,
			Source: graph.VertexID(*source)}
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "sgreplay: unknown analytics %q\n", *analytics)
		os.Exit(2)
	}

	runner := pipeline.NewRunner(cfg, 0)
	fmt.Printf("%-7s %9s %9s %9s %6s %10s %12s %12s\n",
		"batch", "edges", "reorder", "CAD", "aggr", "locality", "update", "compute")
	for id := 0; ; id++ {
		b, err := r.ReadBatch(id, *batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgreplay:", err)
			os.Exit(1)
		}
		bm := runner.ProcessBatch(b)
		cad := "-"
		if bm.ABRActive {
			cad = fmt.Sprintf("%.0f", bm.CAD)
		}
		fmt.Printf("%-7d %9d %9v %9s %6d %10.2f %12s %12s\n",
			bm.BatchID, b.Size(), bm.Reordered, cad, bm.AggregatedBatches,
			bm.Locality, bm.Update.Round(0), bm.Compute.Round(0))
	}
	runner.Finish()

	m := runner.Metrics()
	fmt.Printf("\ntotal: %d batches, update %.3fs, compute %.3fs\n",
		len(m.Batches), m.UpdateSeconds(), m.ComputeSeconds())
}

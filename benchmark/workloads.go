package main

import (
	"streamgraph"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
)

// workload is one set of inputs plus the configuration it runs under.
// Every default comes from the facade: a config names only the fields
// the workload needs, so a later change of a default is measured by the
// same workloads. Batch shapes and rates are fixed; only the number of
// laps follows --seconds.
type workload struct {
	name string
	why  string
	// serve runs the laps through internal/server over loopback HTTP
	// instead of calling the facade.
	serve bool
	// warm batches are applied untimed on a fresh system, then timed
	// batches are measured. For a serving workload timed is the
	// open-loop POST count and closed the back-to-back POST count.
	warm, timed, closed int
	// replay, when not 0, is how many of lap 0's batches the traced run
	// sends through each layer, for a lap too long to replay a dozen
	// times within one run.
	replay   int
	config   func() streamgraph.Config
	generate func(seed int64, n int) []*graph.Batch
}

// Open-loop serving rates in POSTs per second; every POST comes with
// getsPerPost GETs on a second lane. rateGated is the rate the
// end-to-end latencies are taken at; the traced run adds the other two
// to find the highest rate that holds the latency limit.
const (
	rateLow     = 40
	rateGated   = 80
	rateHigh    = 120
	getsPerPost = 4
	// postLimitMs is the latency limit a rate must hold to count as
	// sustainable in serve.max_ok_rate.
	postLimitMs = 25
)

func fromProfile(short string, batchSize int, deleteFrac float64) (vertices int, generate func(int64, int) []*graph.Batch) {
	p, err := gen.ProfileByName(short)
	if err != nil {
		panic(err) // a workload names a profile that internal/gen does not have
	}
	return p.Vertices, func(seed int64, n int) []*graph.Batch {
		s := gen.NewStreamSeed(p, seed)
		s.SetDeleteFraction(deleteFrac)
		out := make([]*graph.Batch, n)
		for i := range out {
			out[i] = s.NextBatch(batchSize)
		}
		return out
	}
}

func fromAdversarial(kind gen.AdvKind, vertices, batchSize int) func(int64, int) []*graph.Batch {
	return func(seed int64, n int) []*graph.Batch {
		return gen.AdvSpec{Kind: kind, Seed: seed, Vertices: vertices, BatchSize: batchSize, Batches: n}.Generate()
	}
}

// workloads lists the five workloads. Names are permanent: results are
// compared across commits by name.
func workloads() []*workload {
	talkV, talk := fromProfile("talk", 10000, 0)
	ljV, lj := fromProfile("lj", 10000, 0)
	_, superuser := fromProfile("superuser", 1000, 0.1)
	const advV = 50000
	ingest := func(v int) func() streamgraph.Config {
		return func() streamgraph.Config { return streamgraph.Config{Vertices: v} }
	}
	return []*workload{
		{
			name: "hub-ingest", warm: 5, timed: 60,
			why:      "hub-heavy batches: ABR reorders every batch, so reorder and USC do most of the work",
			config:   ingest(talkV),
			generate: talk,
		},
		{
			name: "flat-ingest", warm: 5, timed: 80,
			why:      "low-degree batches: ABR stays on the locked baseline engine and reorder is bypassed",
			config:   ingest(ljV),
			generate: lj,
		},
		{
			name: "churn-ingest", warm: 5, timed: 80,
			why:      "deletes, duplicates and skew cycle batch by batch, so ABR flips engines mid-stream",
			config:   ingest(advV),
			generate: fromAdversarial(gen.AdvMixed, advV, 10000),
		},
		{
			name: "overlap-pr", warm: 5, timed: 80,
			why: "consecutive batches share vertices: PageRank dominates and OCA defers rounds, trading freshness",
			config: func() streamgraph.Config {
				return streamgraph.Config{Vertices: advV, Analytics: streamgraph.AnalyticsPageRank}
			},
			generate: fromAdversarial(gen.AdvOverlap, advV, 5000),
		},
		{
			name: "serve-mix", serve: true, warm: 20, timed: 160, closed: 48, replay: 140,
			why: "the path users hit: JSON POSTs and GETs over loopback HTTP into sgserve's default configuration",
			// Exactly cmd/sgserve's flag defaults.
			config: func() streamgraph.Config {
				return streamgraph.Config{
					Vertices:  100000,
					Analytics: streamgraph.AnalyticsPageRank,
					Observer:  obs.New(obs.Options{TraceCapacity: 256, SpanCapacity: 4096}),
					Shed:      streamgraph.ShedConfig{SkipComputeAt: 0.5, ForceBaselineAt: 0.85},
					Recover:   true,
				}
			},
			generate: superuser,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// lapBatches is how many batches one lap consumes.
func (w *workload) lapBatches() int { return w.warm + w.timed + w.closed }

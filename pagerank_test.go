package streamgraph

import (
	"fmt"
	"math"
	"testing"

	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/oracle"
)

// maxRelErr is max_v |got−want|/want; want is positive everywhere.
func maxRelErr(got, want []float64) (float64, VertexID) {
	worst, at := 0.0, VertexID(0)
	for v := range want {
		if e := math.Abs(got[v]-want[v]) / want[v]; e > worst {
			worst, at = e, VertexID(v)
		}
	}
	return worst, at
}

// TestPageRankAccuracyOnBenchmarkInputs streams the two analytics
// inputs of the repository benchmark through the facade under their
// benchmark configurations (OCA on, so rounds aggregate batch pairs),
// flushes, and holds every vertex within 1% of a converged static
// PageRank. Out-degree changes on these inputs are what an engine that
// propagates only rank changes gets wrong (up to 201% on the
// superuser stream).
func TestPageRankAccuracyOnBenchmarkInputs(t *testing.T) {
	superuser, err := gen.ProfileByName("superuser")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name     string
		cfg      Config
		generate func(seed int64) []*graph.Batch
	}{
		{
			name: "overlap",
			cfg:  Config{Vertices: 50000, Analytics: AnalyticsPageRank},
			generate: func(seed int64) []*graph.Batch {
				return gen.AdvSpec{Kind: gen.AdvOverlap, Seed: seed, Vertices: 50000, BatchSize: 5000, Batches: 85}.Generate()
			},
		},
		{
			name: "superuser-deletes",
			cfg: Config{Vertices: 100000, Analytics: AnalyticsPageRank,
				Shed: ShedConfig{SkipComputeAt: 0.5, ForceBaselineAt: 0.85}, Recover: true},
			generate: func(seed int64) []*graph.Batch {
				s := gen.NewStreamSeed(superuser, seed)
				s.SetDeleteFraction(0.1)
				out := make([]*graph.Batch, 228)
				for i := range out {
					out[i] = s.NextBatch(1000)
				}
				return out
			},
		},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", in.name, seed), func(t *testing.T) {
				sys := New(in.cfg)
				for _, b := range in.generate(seed) {
					if _, err := sys.ApplyBatch(b.Edges); err != nil {
						t.Fatal(err)
					}
				}
				sys.Flush()
				got, want := sys.Ranks(), oracle.StaticRanks(sys.Graph(), 0, false)
				if len(got) != len(want) {
					t.Fatalf("%d ranks, graph has %d vertices", len(got), len(want))
				}
				e, v := maxRelErr(got, want)
				if e > 0.01 {
					t.Fatalf("vertex %d is %.3g%% off the converged rank (limit 1%%)", v, 100*e)
				}
				t.Logf("max relative error %.3g%% (vertex %d)", 100*e, v)
			})
		}
	}
}

// TestPageRankShardsAgree: a sharded system runs the single-node
// incremental engine over its merged view, and an owner's adjacency
// order is a function of the stream, as one node's is. With one
// worker, OCA off and no migration, ranks at Shards 1, 2 and 4 are
// therefore bit-identical. With OCA on, the shards' locality is an
// estimate and rounds may aggregate differently; the ranks then agree
// within the engine's error bound.
func TestPageRankShardsAgree(t *testing.T) {
	const verts = 3000
	batches := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 4, Vertices: verts, BatchSize: 1500, Batches: 12}.Generate()
	run := func(t *testing.T, shards, vertices int, disableOCA bool, stream []*graph.Batch) []float64 {
		sys := New(Config{Vertices: vertices, Workers: 1, Analytics: AnalyticsPageRank,
			Shards: shards, DisableOCA: disableOCA})
		for _, b := range stream {
			if _, err := sys.ApplyBatch(b.Edges); err != nil {
				t.Fatal(err)
			}
		}
		sys.Flush()
		if n := sys.ShardReport().Repartitions; n != 0 {
			t.Fatalf("Shards %d: %d migrations; the comparison assumes none", shards, n)
		}
		return sys.Ranks()
	}

	identical := func(t *testing.T, vertices int, stream []*graph.Batch) {
		want := run(t, 1, vertices, true, stream)
		for _, shards := range []int{2, 4} {
			got := run(t, shards, vertices, true, stream)
			if len(got) != len(want) {
				t.Fatalf("Shards %d: %d ranks, want %d", shards, len(got), len(want))
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("Shards %d: vertex %d ranked %v, single node %v", shards, v, got[v], want[v])
				}
			}
		}
	}
	t.Run("OCA=off", func(t *testing.T) { identical(t, verts, batches) })
	// An extra edge in each of the first batches grows the vertex
	// space past Config.Vertices; only its endpoints' owners see it.
	// Every shard must still grow as one node does, or PageRank's 1/N
	// differs.
	t.Run("OCA=off/grown", func(t *testing.T) {
		grown := append([]*graph.Batch(nil), batches...)
		for i, dst := range []graph.VertexID{3100, 6500, 13000} {
			b := *grown[i]
			b.Edges = append(append([]graph.Edge(nil), b.Edges...), graph.Edge{Src: graph.VertexID(i + 1), Dst: dst, Weight: 1})
			grown[i] = &b
		}
		identical(t, verts, grown)
	})

	t.Run("OCA=on", func(t *testing.T) {
		want := run(t, 1, verts, false, batches)
		// Float32 state adds rounding to the engine's error bound.
		eps := (&compute.PageRank{Incremental: true}).ErrorBound() + 1e-5
		for _, shards := range []int{2, 4} {
			got := run(t, shards, verts, false, batches)
			diff, total := 0.0, 0.0
			for v := range want {
				diff += math.Abs(got[v] - want[v])
				total += want[v]
			}
			if rel := diff / total; rel > eps {
				t.Fatalf("Shards 1 and %d differ by relative L1 %v, bound %v", shards, rel, eps)
			}
			t.Logf("Shards 1 vs %d: relative L1 %.3g", shards, diff/total)
		}
	})
}

// TestPageRankReproducibleSingleWorker: with one worker the update
// engines and the rounds run in a fixed order, so two runs of one
// stream give bit-identical ranks.
func TestPageRankReproducibleSingleWorker(t *testing.T) {
	batches := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 6, Vertices: 2000, BatchSize: 800, Batches: 10}.Generate()
	ranks := make([][]float64, 2)
	for i := range ranks {
		sys := New(Config{Vertices: 2000, Analytics: AnalyticsPageRank, Workers: 1})
		for _, b := range batches {
			if _, err := sys.ApplyBatch(b.Edges); err != nil {
				t.Fatal(err)
			}
		}
		sys.Flush()
		ranks[i] = sys.Ranks()
	}
	for v := range ranks[0] {
		if math.Float64bits(ranks[0][v]) != math.Float64bits(ranks[1][v]) {
			t.Fatalf("vertex %d: %v then %v", v, ranks[0][v], ranks[1][v])
		}
	}
}

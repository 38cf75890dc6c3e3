package streamgraph

import (
	"fmt"
	"math"
	"testing"

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

// TestPageRankShardsAgree: one stream ranked by a single node's
// incremental engine and by a two-shard router's scatter/gather sweeps
// agrees within both error bounds.
func TestPageRankShardsAgree(t *testing.T) {
	const verts = 3000
	batches := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 4, Vertices: verts, BatchSize: 1500, Batches: 12}.Generate()
	ranks := make([][]float64, 2)
	for i, shards := range []int{1, 2} {
		sys := New(Config{Vertices: verts, Analytics: AnalyticsPageRank, Shards: shards})
		for _, b := range batches {
			if _, err := sys.ApplyBatch(b.Edges); err != nil {
				t.Fatal(err)
			}
		}
		sys.Flush()
		ranks[i] = sys.Ranks()
	}
	diff, total := 0.0, 0.0
	for v := range ranks[0] {
		diff += math.Abs(ranks[0][v] - ranks[1][v])
		total += ranks[1][v]
	}
	// Incremental bound d·1e-3/(1−d), the sweep's d·1e-6/(1−d), and
	// float32 rounding.
	const eps = 0.85*1e-3/0.15 + 0.85*1e-6/0.15 + 1e-5
	rel := diff / total
	if rel > eps {
		t.Fatalf("Shards 1 and 2 differ by relative L1 %v, bound %v", rel, eps)
	}
	t.Logf("Shards 1 vs 2: relative L1 %.3g", rel)
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

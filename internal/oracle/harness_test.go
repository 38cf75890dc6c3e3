package oracle

import (
	"errors"
	"strings"
	"testing"

	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
	"streamgraph/internal/update"
)

// TestDifferentialMatrix replays every adversarial stream family
// through the full engine × store matrix (plus the adaptive pipeline
// paths) and requires full-graph and compute-result equivalence after
// every batch. These streams are the seeds the fuzz targets extend.
func TestDifferentialMatrix(t *testing.T) {
	const verts = 512
	for _, kind := range gen.AdvKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			spec := gen.AdvSpec{Kind: kind, Seed: 1, Vertices: verts, BatchSize: 300, Batches: 8}
			err := RunStream(spec.Generate(), Matrix(verts, 4), Options{
				Context:  spec.String(),
				Computes: DefaultComputes(0),
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialSeeds runs a few extra seeds per family, state-only
// (no compute), which is cheap enough to widen the stream coverage.
func TestDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short")
	}
	const verts = 256
	for _, kind := range gen.AdvKinds() {
		for seed := int64(2); seed <= 4; seed++ {
			spec := gen.AdvSpec{Kind: kind, Seed: seed, Vertices: verts, BatchSize: 200, Batches: 6}
			err := RunStream(spec.Generate(), Matrix(verts, 3), Options{Context: spec.String()})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDifferentialProfileStream replays a Table 2 profile stream with
// deletions mixed in, state-only (the profile's vertex space makes
// per-batch compute runs needlessly heavy here). Weighted profiles
// are excluded by construction: the edge-parallel baseline resolves
// intra-batch duplicate insertions of one key in scheduling order, so
// only streams whose duplicate insertions carry equal weights are
// deterministic across engines (the adversarial generators guarantee
// this; profile streams only when unweighted).
func TestDifferentialProfileStream(t *testing.T) {
	p, err := gen.ProfileByName("talk")
	if err != nil {
		t.Fatal(err)
	}
	if p.Weighted {
		t.Fatal("differential profile stream must be unweighted")
	}
	s := gen.NewStreamSeed(p, 99)
	s.SetDeleteFraction(0.15)
	batches := make([]*graph.Batch, 3)
	for i := range batches {
		batches[i] = s.NextBatch(2000)
	}
	err = RunStream(batches, Matrix(p.Vertices, 4), Options{
		Context: `profile "talk" seed 99, delete fraction 0.15, 3x2000-edge batches`,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSuperuserDeletes replays the serving benchmark's
// input shape — the superuser profile with 10% deletions in 1 000-edge
// batches — through the facade's engine paths (the ABR pipeline,
// RO+USC, a two-shard router), checking the graph every fifth batch
// and incremental PageRank, as the facade builds it, after every batch.
// Its hub sources keep gaining and losing out-edges, which is the input
// that breaks an incremental PageRank blind to out-degree changes.
func TestDifferentialSuperuserDeletes(t *testing.T) {
	p, err := gen.ProfileByName("superuser")
	if err != nil {
		t.Fatal(err)
	}
	s := gen.NewStreamSeed(p, 1)
	s.SetDeleteFraction(0.1)
	batches := make([]*graph.Batch, 20)
	for i := range batches {
		batches[i] = s.NextBatch(1000)
	}
	sharded, _ := ShardedTarget("sharded/n=2", pipeline.AlwaysROUSC, 2, p.Vertices, 2, shard.Policy{Disabled: true})
	err = RunStream(batches, []*Target{
		MutableTarget("mutable/adjlist", graph.NewAdjacencyStore(p.Vertices)),
		EngineTarget("ro+usc/adjlist", &update.Reordered{Cfg: update.Config{Workers: 2}, USC: true}, p.Vertices),
		PipelineTarget("pipeline/abr+usc", pipeline.Config{Policy: pipeline.ABRUSC, Workers: 2}, p.Vertices),
		sharded,
	}, Options{
		Context:    `profile "superuser" seed 1, delete fraction 0.1, 20x1000-edge batches`,
		Computes:   []func() compute.Engine{func() compute.Engine { return &compute.PageRank{Incremental: true} }},
		CheckEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// noDupCheckEngine is a deliberately broken engine: it appends every
// insertion without the duplicate-check search, which silently
// corrupts adjacency on any stream that re-inserts a live edge. The
// oracle must flag it with a replayable divergence.
type noDupCheckEngine struct{}

func (e *noDupCheckEngine) Name() string { return "buggy-nodup" }

func (e *noDupCheckEngine) Apply(s *graph.AdjacencyStore, b *graph.Batch) update.Stats {
	s.EnsureVertices(int(b.MaxVertex()) + 1)
	inserts, deletes := b.Split()
	bid := int32(b.ID)
	for _, edge := range inserts {
		s.AppendOutUnsafe(edge.Src, graph.Neighbor{ID: edge.Dst, Weight: edge.Weight})
		s.AppendInUnsafe(edge.Dst, graph.Neighbor{ID: edge.Src, Weight: edge.Weight})
		s.SetLatestBID(edge.Src, bid)
		s.SetLatestBID(edge.Dst, bid)
	}
	for _, edge := range deletes {
		s.DeleteEdge(edge.Src, edge.Dst)
		s.SetLatestBID(edge.Src, bid)
		s.SetLatestBID(edge.Dst, bid)
	}
	return update.Stats{}
}

// dropDeletesEngine is a second fault model: a correct baseline that
// silently ignores deletion edges.
type dropDeletesEngine struct {
	inner update.Baseline
}

func (e *dropDeletesEngine) Name() string { return "buggy-nodelete" }

func (e *dropDeletesEngine) Apply(s *graph.AdjacencyStore, b *graph.Batch) update.Stats {
	inserts, _ := b.Split()
	return e.inner.Apply(s, &graph.Batch{ID: b.ID, Edges: inserts})
}

func TestInjectedDivergenceCaught(t *testing.T) {
	cases := []struct {
		name string
		kind gen.AdvKind
		eng  update.Engine
	}{
		{"skipped duplicate check", gen.AdvDuplicateHeavy, &noDupCheckEngine{}},
		{"dropped deletions", gen.AdvDeleteHeavy, &dropDeletesEngine{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := gen.AdvSpec{Kind: tc.kind, Seed: 7, Vertices: 64, BatchSize: 128, Batches: 6}
			targets := []*Target{
				EngineTarget("good/baseline", &update.Baseline{Cfg: update.Config{Workers: 2}}, 64),
				EngineTarget("bad/"+tc.eng.Name(), tc.eng, 64),
			}
			err := RunStream(spec.Generate(), targets, Options{Context: spec.String()})
			if err == nil {
				t.Fatal("oracle failed to catch the injected divergence")
			}
			var d *Divergence
			if !errors.As(err, &d) {
				t.Fatalf("error is %T, want *Divergence", err)
			}
			if d.Target != "bad/"+tc.eng.Name() {
				t.Fatalf("divergence blamed %q, want the buggy engine", d.Target)
			}
			if !strings.Contains(err.Error(), "replay:") || !strings.Contains(err.Error(), "Seed: 7") {
				t.Fatalf("divergence lacks a replayable seed: %v", err)
			}
		})
	}
}

// TestComputeDivergenceCaught verifies the compute-equivalence leg:
// two state-equivalent targets whose analytics disagree must be
// flagged. The second target's BFS gets a different source vertex —
// a stand-in for an analytic that mis-reads one store representation.
func TestComputeDivergenceCaught(t *testing.T) {
	spec := gen.AdvSpec{Kind: gen.AdvSkewed, Seed: 3, Vertices: 64, BatchSize: 128, Batches: 2}
	targets := []*Target{
		EngineTarget("a/baseline", &update.Baseline{Cfg: update.Config{Workers: 1}}, 64),
		EngineTarget("b/baseline", &update.Baseline{Cfg: update.Config{Workers: 1}}, 64),
	}
	// The factory is called once per target, in order.
	call := 0
	err := RunStream(spec.Generate(), targets, Options{
		Context: spec.String(),
		Computes: []func() compute.Engine{
			func() compute.Engine {
				src := graph.VertexID(0)
				if call++; call > 1 {
					src = 1 // second target computes from elsewhere
				}
				return &compute.BFS{Incremental: true, Workers: 1, Source: src}
			},
		},
	})
	if err == nil {
		t.Fatal("compute divergence not caught")
	}
	if !strings.Contains(err.Error(), "compute") {
		t.Fatalf("divergence should mention compute: %v", err)
	}
}

package pipeline_test

import (
	"testing"

	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/oracle"
	"streamgraph/internal/pipeline"
)

// TestPoliciesMatchOracle replays one adversarial stream through a
// Runner per policy — every software policy and the simulated SW/HW
// paths (whose functional state change rides the USC engine) — and
// requires the final graph, checked after every batch, to match the
// sequential reference model. This is the pipeline-level leg of the
// differential gate: whatever execution strategy ABR/OCA/HAU pick
// per batch, the state the analytics see must be identical.
func TestPoliciesMatchOracle(t *testing.T) {
	const verts = 256
	policies := []pipeline.Policy{
		pipeline.Baseline,
		pipeline.AlwaysRO,
		pipeline.AlwaysROUSC,
		pipeline.ABR,
		pipeline.ABRUSC,
		pipeline.PerfectABR,
		pipeline.SimBaseline,
		pipeline.SimABRUSC,
		pipeline.SimABRUSCHAU,
		pipeline.SimHAU,
	}
	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 21, Vertices: verts, BatchSize: 250, Batches: 6}
	for _, p := range policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := pipeline.Config{Policy: p, Workers: 2}
			if p == pipeline.PerfectABR {
				cfg.Oracle = func(b *graph.Batch) bool { return b.ID%2 == 0 }
			}
			target := oracle.PipelineTarget("pipeline/"+p.String(), cfg, verts)
			err := oracle.RunStream(spec.Generate(), []*oracle.Target{target},
				oracle.Options{Context: spec.String() + " policy=" + p.String()})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineComputeAndTuningMatchOracle covers the pipeline
// features that run *around* the update path — OCA compute
// aggregation, concurrent compute rounds on CSR snapshots, and ABR
// auto-tuning (whose decisions are timing-dependent) — and verifies
// none of them perturb graph state: whatever they decide, the store
// must still match the model after every batch.
func TestPipelineComputeAndTuningMatchOracle(t *testing.T) {
	const verts = 256
	spec := gen.AdvSpec{Kind: gen.AdvOverlap, Seed: 33, Vertices: verts, BatchSize: 250, Batches: 8}
	cfgs := map[string]pipeline.Config{
		"oca-compute": {
			Policy:  pipeline.ABRUSC,
			Workers: 2,
			Compute: &compute.PageRank{Incremental: true, Workers: 2},
		},
		"concurrent-compute": {
			Policy:            pipeline.ABRUSC,
			Workers:           2,
			Compute:           &compute.CC{Incremental: true, Workers: 2},
			ConcurrentCompute: true,
		},
	}
	for name, cfg := range cfgs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			target := oracle.PipelineTarget("pipeline/"+name, cfg, verts)
			err := oracle.RunStream(spec.Generate(), []*oracle.Target{target},
				oracle.Options{Context: spec.String() + " variant=" + name})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

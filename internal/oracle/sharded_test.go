package oracle

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"streamgraph/internal/fault"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
)

// aggressiveRepartition trips the migration trigger early and often,
// so short differential streams exercise the save/restore path.
func aggressiveRepartition() shard.Policy {
	return shard.Policy{
		MinBatches:     2,
		Cooldown:       2,
		SkewThreshold:  0.05,
		ImbalanceRatio: 1.01,
		MaxMove:        8,
	}
}

// hubStream builds a deterministic skew-drifting stream: most of each
// batch targets one hub vertex (degree skew far above any threshold),
// the rest scatters inserts and deletes so adjacency churns. It is the
// stream shape the repartitioner exists for.
func hubStream(verts, batchSize, batches int) []*graph.Batch {
	hub := graph.VertexID(verts / 3)
	out := make([]*graph.Batch, batches)
	for b := 0; b < batches; b++ {
		edges := make([]graph.Edge, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			src := graph.VertexID((b*batchSize + i*7) % verts)
			if i%4 != 0 {
				edges = append(edges, graph.Edge{Src: src, Dst: hub, Weight: graph.Weight(1 + i%3)})
			} else if b > 0 && i%8 == 0 {
				// Delete an edge from two batches ago (absent deletes
				// are no-ops, so this is always safe).
				old := graph.VertexID(((b-1)*batchSize + i*7) % verts)
				edges = append(edges, graph.Edge{Src: old, Dst: hub, Delete: true})
			} else {
				edges = append(edges, graph.Edge{Src: src, Dst: graph.VertexID((i * 13) % verts), Weight: 1})
			}
		}
		out[b] = &graph.Batch{ID: b, Edges: edges}
	}
	return out
}

// TestShardMatrixDifferential is the CI shard-matrix job's entry
// point: SHARDS=<1|2|4> selects one shard count (unset runs all
// three), and each count runs with the repartitioner off and — for
// N >= 2 — on, with an aggressive policy that must trigger at least
// one mid-stream migration. Every configuration runs under both shard
// update policies: ABR+USC and the facade's default RO+USC. Its merged
// state, and the incremental engines run over it, must match the
// sequential reference.
func TestShardMatrixDifferential(t *testing.T) {
	counts := []int{1, 2, 4}
	if env := os.Getenv("SHARDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad SHARDS=%q", env)
		}
		counts = []int{n}
	}
	policies := []pipeline.Policy{pipeline.ABRUSC, pipeline.AlwaysROUSC}
	const verts = 192
	for _, n := range counts {
		n := n
		for _, repart := range []bool{false, true} {
			if repart && n < 2 {
				continue // a single shard has nothing to migrate between
			}
			repart := repart
			t.Run(fmt.Sprintf("N=%d,repart=%v", n, repart), func(t *testing.T) {
				t.Parallel()
				if repart {
					for _, pol := range policies {
						stream := hubStream(verts, 60, 12)
						target, router := ShardedTarget(
							fmt.Sprintf("sharded/n=%d+repart/%s", n, pol), pol, n, verts, 2, aggressiveRepartition())
						err := RunStream(stream, []*Target{
							MutableTarget("mutable/adjlist", graph.NewAdjacencyStore(verts)),
							target,
						}, Options{
							Context:  fmt.Sprintf("hubStream(%d, 60, 12), shards=%d, policy %s, aggressive repartition", verts, n, pol),
							Computes: DefaultComputes(0),
						})
						if err != nil {
							t.Fatal(err)
						}
						if router.Repartitions() == 0 {
							t.Fatalf("policy %s: skew-drifting stream triggered no migration; audits: %+v", pol, router.Audits())
						}
					}
					return
				}
				for _, kind := range gen.AdvKinds() {
					kind := kind
					t.Run(kind.String(), func(t *testing.T) {
						t.Parallel()
						for _, pol := range policies {
							spec := gen.AdvSpec{Kind: kind, Seed: 3, Vertices: verts, BatchSize: 80, Batches: 6}
							target, _ := ShardedTarget(
								fmt.Sprintf("sharded/n=%d/%s", n, pol), pol, n, verts, 2, shard.Policy{Disabled: true})
							err := RunStream(spec.Generate(), []*Target{
								MutableTarget("mutable/adjlist", graph.NewAdjacencyStore(verts)),
								target,
							}, Options{
								Context:  spec.String() + fmt.Sprintf(" // shards=%d, policy %s", n, pol),
								Computes: DefaultComputes(0),
							})
							if err != nil {
								t.Fatal(err)
							}
						}
					})
				}
			})
		}
	}
}

// TestShardFaultDifferential is the router fault-differential: with a
// deterministic panic schedule injected into ONE shard, every Apply
// reports exactly which shards accepted their sub-batches, and
// replaying those accepted per-shard prefixes through the sequential
// oracle must reproduce each shard's store bit-for-bit. Panics isolate
// per shard: the others' sub-batches land, nothing is lost or
// double-applied.
func TestShardFaultDifferential(t *testing.T) {
	const shards, verts = 3, 160
	router := shard.New(shard.Config{
		Shards:      shards,
		Vertices:    verts,
		Pipeline:    pipeline.Config{Policy: pipeline.ABRUSC, Workers: 2},
		Repartition: shard.Policy{Disabled: true},
		PerShard: func(i int, c pipeline.Config) pipeline.Config {
			if i == 1 {
				c.Fault = fault.New(fault.Spec{Seed: 7, UpdatePanicEvery: 3})
			}
			return c
		},
	})

	// One sequential oracle model per shard, fed exactly the sub-batch
	// prefixes that shard accepted.
	models := make([]*Model, shards)
	for i := range models {
		models[i] = NewModel()
	}

	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 21, Vertices: verts, BatchSize: 50, Batches: 12}
	sawPanic := false
	for _, b := range spec.Generate() {
		parts := router.Split(b)
		res, err := router.Apply(b)
		if err != nil {
			sawPanic = true
		}
		for i := 0; i < shards; i++ {
			if res.PerShard[i].Applied {
				if len(parts[i]) > 0 {
					models[i].ApplyBatch(&graph.Batch{ID: b.ID, Edges: parts[i]})
				}
			} else if i != 1 {
				t.Fatalf("batch %d: un-faulted shard %d did not apply: %v", b.ID, i, res.PerShard[i].Err)
			}
		}
	}
	if !sawPanic {
		t.Fatalf("fault schedule injected no panic; the differential proved nothing")
	}
	for i := 0; i < shards; i++ {
		if d := models[i].Verify(router.ShardStore(i)); d != nil {
			d.Target = fmt.Sprintf("shard %d", i)
			t.Fatalf("accepted-prefix replay diverges: %v", d)
		}
	}
	rep := router.Report()
	if rep.PerShard[1].Panics == 0 {
		t.Fatalf("shard 1 recorded no panics: %+v", rep.PerShard)
	}
}

// TestShardShedDifferential is the shed variant: one shard runs a
// load-shed ladder pinned at maximum pressure (forced baseline mode)
// while the others run the adaptive policy. Shedding degrades HOW a
// sub-batch applies, never WHETHER, so all shards accept everything
// and the aggregate view still matches the sequential reference.
func TestShardShedDifferential(t *testing.T) {
	const shards, verts = 2, 160
	router := shard.New(shard.Config{
		Shards:      shards,
		Vertices:    verts,
		Pipeline:    pipeline.Config{Policy: pipeline.ABRUSC, Workers: 2},
		Repartition: shard.Policy{Disabled: true},
		PerShard: func(i int, c pipeline.Config) pipeline.Config {
			if i == 1 {
				c.Shed = pipeline.ShedConfig{SkipComputeAt: 0.1, ForceBaselineAt: 0.2}
			}
			return c
		},
	})
	router.SetPressure(func() float64 { return 1.0 })

	model := NewModel()
	spec := gen.AdvSpec{Kind: gen.AdvOverlap, Seed: 5, Vertices: verts, BatchSize: 60, Batches: 10}
	for _, b := range spec.Generate() {
		model.ApplyBatch(b)
		if _, err := router.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", b.ID, err)
		}
	}
	if d := model.Verify(router.View()); d != nil {
		t.Fatalf("shed shard diverged from sequential reference: %v", d)
	}
	if err := graph.CheckMirror(router.View()); err != nil {
		t.Fatalf("mirror invariant: %v", err)
	}
}

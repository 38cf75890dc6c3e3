package shard

import (
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
)

func TestRingDeterministicAndTotal(t *testing.T) {
	r1 := NewRing(4, 0)
	r2 := NewRing(4, 0)
	counts := make([]int, 4)
	for v := 0; v < 20000; v++ {
		a, b := r1.Owner(graph.VertexID(v)), r2.Owner(graph.VertexID(v))
		if a != b {
			t.Fatalf("vertex %d: nondeterministic owner %d vs %d", v, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("vertex %d: owner %d out of range", v, a)
		}
		counts[a]++
	}
	// Consistent hashing with virtual nodes should split the keyspace
	// within a loose factor of even; a collapsed ring is a bug.
	for s, c := range counts {
		if c < 1000 {
			t.Fatalf("shard %d owns only %d of 20000 vertices: %v", s, c, counts)
		}
	}
}

func TestRingOverlayReassignment(t *testing.T) {
	r := NewRing(2, 0)
	base := r.Owner(100)
	other := 1 - base
	r.Assign(90, 110, other)
	if got := r.Owner(100); got != other {
		t.Fatalf("owner(100) after Assign = %d, want %d", got, other)
	}
	fresh := NewRing(2, 0)
	if r.Owner(89) != fresh.Owner(89) || r.Owner(111) != fresh.Owner(111) {
		t.Fatalf("overlay leaked outside its range")
	}
	// Splitting an existing span keeps the overlay consistent.
	r.Assign(95, 105, base)
	if got := r.Owner(100); got != base {
		t.Fatalf("owner(100) after re-assign = %d, want %d", got, base)
	}
	if got := r.Owner(92); got != other {
		t.Fatalf("owner(92) lost its earlier assignment: got %d, want %d", got, other)
	}
	if got := r.Owner(108); got != other {
		t.Fatalf("owner(108) lost its earlier assignment: got %d, want %d", got, other)
	}
}

func TestSplitMirrorsCrossShardEdges(t *testing.T) {
	r := New(Config{
		Shards:      4,
		Vertices:    256,
		Pipeline:    pipeline.Config{Policy: pipeline.Baseline, Workers: 1},
		Repartition: Policy{Disabled: true},
	})
	b := &graph.Batch{ID: 0}
	for v := 0; v < 128; v++ {
		b.Edges = append(b.Edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v * 7) % 256), Weight: 1})
	}
	parts := r.Split(b)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	for _, e := range b.Edges {
		so, do := r.Owner(e.Src), r.Owner(e.Dst)
		want := 1
		if so != do {
			want = 2
		}
		got := 0
		for _, p := range parts {
			for _, pe := range p {
				if pe == e {
					got++
				}
			}
		}
		if got != want {
			t.Fatalf("edge %v: routed %d times, want %d", e, got, want)
		}
	}
	if total < len(b.Edges) {
		t.Fatalf("split lost edges: %d routed < %d input", total, len(b.Edges))
	}
	// Relative order within each part must match the input order.
	for s, p := range parts {
		last := -1
		for _, pe := range p {
			idx := -1
			for i, e := range b.Edges {
				if e == pe && i > last {
					idx = i
					break
				}
			}
			if idx < 0 || idx <= last {
				t.Fatalf("shard %d: sub-batch order diverges from input order", s)
			}
			last = idx
		}
	}
}

func TestApplyAggregatesAndCountsEdges(t *testing.T) {
	r := New(Config{
		Shards:      2,
		Vertices:    64,
		Pipeline:    pipeline.Config{Policy: pipeline.ABRUSC, Workers: 1},
		Repartition: Policy{Disabled: true},
	})
	edges := []graph.Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
		{Src: 1, Dst: 3, Weight: 2},
		{Src: 5, Dst: 1, Weight: 1},
	}
	res, err := r.Apply(&graph.Batch{ID: 0, Edges: edges})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.BatchID != 0 || len(res.PerShard) != 2 {
		t.Fatalf("bad result shape: %+v", res)
	}
	// Four distinct vertices, each counted on every shard that updated
	// it; nothing overlaps a previous batch yet.
	if res.UniqueVerts < 4 || res.OverlapVerts != 0 {
		t.Fatalf("OCA counters unique=%d overlap=%d, want >= 4 and 0", res.UniqueVerts, res.OverlapVerts)
	}
	if got := r.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4 (mirrored copies must not double-count)", got)
	}
	// Deleting an edge must be reflected once, globally. Both of its
	// endpoints appeared in the previous batch, on every shard that
	// updates them now.
	res, err = r.Apply(&graph.Batch{ID: 1, Edges: []graph.Edge{{Src: 1, Dst: 3, Delete: true}}})
	if err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
	if res.UniqueVerts < 2 || res.OverlapVerts != res.UniqueVerts {
		t.Fatalf("OCA counters unique=%d overlap=%d, want >= 2 and equal", res.UniqueVerts, res.OverlapVerts)
	}
	if got := r.NumEdges(); got != 3 {
		t.Fatalf("NumEdges after delete = %d, want 3", got)
	}
	v := r.View()
	if !v.HasEdge(1, 2) || v.HasEdge(1, 3) {
		t.Fatalf("view adjacency wrong after delete")
	}
	if err := graph.CheckMirror(v); err != nil {
		t.Fatalf("mirror invariant on view: %v", err)
	}
}

// TestMigrationKeepsVertexSpace: a migration rebuilds two shards'
// stores from snapshots, and the merged vertex space stays the size
// the stream grew it to, which the analytics read.
func TestMigrationKeepsVertexSpace(t *testing.T) {
	r := New(Config{
		Shards:      2,
		Vertices:    10,
		Pipeline:    pipeline.Config{Policy: pipeline.Baseline, Workers: 1},
		Repartition: Policy{MinBatches: 2, Cooldown: 2, SkewThreshold: 0.05, ImbalanceRatio: 1.01, MaxMove: 4},
	})
	// Out-of-order IDs grow the stores to a size an ascending rebuild
	// would not reach; then a single-hub stream forces a migration.
	if _, err := r.Apply(&graph.Batch{ID: 0, Edges: []graph.Edge{
		{Src: 140, Dst: 141, Weight: 1}, {Src: 130, Dst: 131, Weight: 1}, {Src: 160, Dst: 3, Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 30 && r.Repartitions() == 0; i++ {
		before := r.NumVertices()
		var edges []graph.Edge
		for j := 0; j < 16; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(8 + (i*16+j)%100), Dst: 7, Weight: 1})
		}
		if _, err := r.Apply(&graph.Batch{ID: i, Edges: edges}); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		if got := r.NumVertices(); got != before {
			t.Fatalf("batch %d (migrations %d): vertex space %d, was %d", i, r.Repartitions(), got, before)
		}
	}
	if r.Repartitions() == 0 {
		t.Fatal("no migration triggered")
	}
}

// TestVertexSpaceGrowsLikeOneNode: IDs past Config.Vertices grow every
// shard's store to the size one node's store reaches on the same
// batches, whichever shards each batch touches.
func TestVertexSpaceGrowsLikeOneNode(t *testing.T) {
	r := New(Config{Shards: 2, Vertices: 10, Pipeline: pipeline.Config{Policy: pipeline.Baseline, Workers: 1}})
	one := graph.NewAdjacencyStore(10)
	// Each batch touches two vertices that two different shards own,
	// so each shard's own sub-batches grow it a different way.
	var a, b graph.VertexID = 1, 2
	for r.Owner(b) == r.Owner(a) {
		b++
	}
	for i, e := range []graph.Edge{{Src: a, Dst: 11, Weight: 1}, {Src: b, Dst: 21, Weight: 1}} {
		batch := &graph.Batch{ID: i, Edges: []graph.Edge{e}}
		if _, err := r.Apply(batch); err != nil {
			t.Fatal(err)
		}
		one.EnsureVertices(int(batch.MaxVertex()) + 1)
	}
	for i := 0; i < r.Shards(); i++ {
		if got, want := r.ShardStore(i).NumVertices(), one.NumVertices(); got != want {
			t.Fatalf("shard %d: %d vertices, one node %d", i, got, want)
		}
	}
}

func TestRepartitionMigratesHotRange(t *testing.T) {
	r := New(Config{
		Shards:   2,
		Vertices: 128,
		Pipeline: pipeline.Config{Policy: pipeline.Baseline, Workers: 1},
		Repartition: Policy{
			MinBatches:     2,
			Cooldown:       2,
			SkewThreshold:  0.05,
			ImbalanceRatio: 1.01,
			MaxMove:        4,
		},
	})
	// A single-hub stream: every edge targets vertex 7, so heat
	// concentrates entirely on 7's owner and the imbalance trigger
	// must fire.
	hub := graph.VertexID(7)
	before := r.Owner(hub)
	// Stop at the first migration: without clearing, the hub would
	// legitimately ping-pong back on later evaluations.
	for i := 0; i < 30 && r.Repartitions() == 0; i++ {
		var edges []graph.Edge
		for j := 0; j < 16; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(8 + (i*16+j)%100), Dst: hub, Weight: 1})
		}
		if _, err := r.Apply(&graph.Batch{ID: i, Edges: edges}); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	if r.Repartitions() == 0 {
		t.Fatalf("no repartition triggered by a single-hub stream; audits: %+v", r.Audits())
	}
	if got := r.Owner(hub); got == before {
		t.Fatalf("hub vertex %d still owned by shard %d after migration", hub, got)
	}
	if len(r.Audits()) == 0 {
		t.Fatalf("migration emitted no decision audit")
	}
	// State must survive the migration: the hub's full in-adjacency
	// lives at its new owner.
	v := r.View()
	if v.InDegree(hub) == 0 {
		t.Fatalf("hub lost its in-adjacency across the migration")
	}
	if err := graph.CheckMirror(v); err != nil {
		t.Fatalf("mirror invariant after migration: %v", err)
	}
}

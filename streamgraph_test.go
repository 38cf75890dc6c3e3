package streamgraph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randomEdges(seed int64, n, vspace int) []Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Edge, n)
	for i := range out {
		src := VertexID(rng.Intn(vspace))
		dst := VertexID(rng.Intn(vspace))
		if src == dst {
			dst = (dst + 1) % VertexID(vspace)
		}
		out[i] = Edge{Src: src, Dst: dst, Weight: Weight(rng.Intn(9) + 1)}
	}
	return out
}

func TestSystemBasicIngestion(t *testing.T) {
	sys := New(Config{Vertices: 100, Workers: 2})
	res, err := sys.ApplyBatch([]Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchID != 0 {
		t.Fatalf("BatchID = %d", res.BatchID)
	}
	if !res.Instrumented {
		t.Fatal("first batch should be ABR-active")
	}
	if sys.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", sys.NumEdges())
	}
	if !sys.Graph().HasEdge(1, 2) {
		t.Fatal("edge missing from snapshot")
	}
	if _, err := sys.ApplyBatch(nil); err == nil {
		t.Fatal("empty batch should error")
	}
	res2, _ := sys.ApplyBatch([]Edge{{Src: 2, Dst: 3, Delete: true}})
	if res2.BatchID != 1 {
		t.Fatalf("BatchID = %d", res2.BatchID)
	}
	if sys.Graph().HasEdge(2, 3) {
		t.Fatal("deletion not applied")
	}
}

func TestSystemPageRank(t *testing.T) {
	sys := New(Config{Vertices: 50, Workers: 2, Analytics: AnalyticsPageRank, DisableOCA: true})
	// Star onto vertex 7: it must end with the top rank.
	var edges []Edge
	for i := 0; i < 20; i++ {
		edges = append(edges, Edge{Src: VertexID(i + 10), Dst: 7, Weight: 1})
	}
	if _, err := sys.ApplyBatch(edges); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	ranks := sys.Ranks()
	if len(ranks) == 0 {
		t.Fatal("no ranks")
	}
	best := VertexID(0)
	for v := range ranks {
		if ranks[v] > ranks[best] {
			best = VertexID(v)
		}
	}
	if best != 7 {
		t.Fatalf("top-ranked vertex = %d, want 7", best)
	}
	if sys.Rank(7) != ranks[7] {
		t.Fatal("Rank accessor mismatch")
	}
	if !math.IsInf(sys.Distance(7), 1) {
		t.Fatal("Distance should be +Inf without SSSP")
	}
}

func TestSystemSSSP(t *testing.T) {
	sys := New(Config{Vertices: 10, Workers: 2, Analytics: AnalyticsSSSP, Source: 0, DisableOCA: true})
	batch := []Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 0, Dst: 2, Weight: 10},
	}
	if _, err := sys.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if d := sys.Distance(2); d != 5 {
		t.Fatalf("Distance(2) = %v, want 5", d)
	}
	if sys.Ranks() != nil {
		t.Fatal("Ranks should be nil without PageRank")
	}
	// A better edge arrives: distance improves.
	if _, err := sys.ApplyBatch([]Edge{{Src: 0, Dst: 2, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	sys.Flush()
	if d := sys.Distance(2); d != 4 {
		t.Fatalf("Distance(2) after update = %v, want 4", d)
	}
}

// TestPoliciesAgree: all public policies converge to the same graph.
func TestPoliciesAgree(t *testing.T) {
	edges := randomEdges(5, 3000, 200)
	var refEdges int
	for i, pol := range []Policy{Adaptive, NeverReorder, AlwaysReorder} {
		sys := New(Config{Vertices: 200, Workers: 2, Policy: pol})
		for lo := 0; lo < len(edges); lo += 500 {
			if _, err := sys.ApplyBatch(edges[lo : lo+500]); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			refEdges = sys.NumEdges()
			continue
		}
		if sys.NumEdges() != refEdges {
			t.Fatalf("policy %d: NumEdges = %d, want %d", pol, sys.NumEdges(), refEdges)
		}
	}
}

// TestDefaultPolicyReordersEveryBatch: a zero Config reorders and
// profiles batches whose CAD_λ is 0 — no vertex above λ, the batches
// the paper's ABR leaves on the locked baseline — and a sharded system
// picks the same default as a single pipeline.
func TestDefaultPolicyReordersEveryBatch(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sys := New(Config{Shards: shards})
		for i := 0; i < 3; i++ {
			res, err := sys.ApplyBatch(randomEdges(int64(i), 2000, 50000))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reordered || !res.Instrumented || res.CAD != 0 || res.Locks != 0 {
				t.Fatalf("shards=%d batch %d: reordered=%v instrumented=%v cad=%v locks=%d, want a lock-free reordered batch measured at CAD 0",
					shards, i, res.Reordered, res.Instrumented, res.CAD, res.Locks)
			}
		}
	}
}

// TestABRTurnsOffOnAdverseStream: scattered batches make the adaptive
// system stop reordering after the first instrumented batch.
func TestABRTurnsOffOnAdverseStream(t *testing.T) {
	sys := New(Config{Vertices: 50000, Workers: 2, Policy: Adaptive})
	for i := 0; i < 3; i++ {
		res, err := sys.ApplyBatch(randomEdges(int64(i), 2000, 50000))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !res.Reordered {
			t.Fatal("first batch reorders by default")
		}
		if i > 0 && res.Reordered {
			t.Fatal("ABR should have turned reordering off")
		}
	}
}

// TestOCAAggregatesViaFacade: high-overlap consecutive batches get an
// aggregated compute round.
func TestOCAAggregatesViaFacade(t *testing.T) {
	// Locality is measured on ABR-active batches (every n-th); use a
	// short period so the second measurement lands early.
	sys := New(Config{Vertices: 300, Workers: 2, Analytics: AnalyticsPageRank,
		Policy: Adaptive, ABR: ABRParams{N: 2, Lambda: 256, TH: 465}})
	mk := func(seed int64) []Edge { return randomEdges(seed, 2000, 300) }
	sawAggregated := false
	for i := 0; i < 6; i++ {
		res, err := sys.ApplyBatch(mk(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.ComputedBatches == 2 {
			sawAggregated = true
		}
	}
	sys.Flush()
	if !sawAggregated {
		t.Fatal("expected at least one aggregated compute round on a high-overlap stream")
	}
}

func TestSnapshotRestore(t *testing.T) {
	sys := New(Config{Vertices: 100, Workers: 2, Analytics: AnalyticsPageRank, DisableOCA: true})
	var edges []Edge
	for i := 0; i < 30; i++ {
		edges = append(edges, Edge{Src: VertexID(i + 10), Dst: 7, Weight: 1})
	}
	if _, err := sys.ApplyBatch(edges); err != nil {
		t.Fatal(err)
	}
	sys.Flush()

	var buf bytes.Buffer
	if err := sys.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(Config{Workers: 2, Analytics: AnalyticsPageRank, DisableOCA: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumEdges() != sys.NumEdges() {
		t.Fatalf("restored %d edges, want %d", restored.NumEdges(), sys.NumEdges())
	}
	// The analytic was refreshed over the restored graph: vertex 7 is
	// still the top-ranked vertex.
	best := VertexID(0)
	for v, r := range restored.Ranks() {
		if r > restored.Rank(best) {
			best = VertexID(v)
			_ = r
		}
	}
	if best != 7 {
		t.Fatalf("restored top rank at %d, want 7", best)
	}
	// Streaming continues on the restored system.
	if _, err := restored.ApplyBatch([]Edge{{Src: 1, Dst: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if !restored.Graph().HasEdge(1, 2) {
		t.Fatal("post-restore batch lost")
	}

	// A sharded restore refreshes the same engine over the merged view:
	// with one worker its ranks equal a single node's bit for bit.
	buf.Reset()
	if err := sys.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	ranks := make([][]float64, 2)
	for i, shards := range []int{1, 2} {
		r, err := NewFromSnapshot(Config{Workers: 1, Shards: shards, Analytics: AnalyticsPageRank, DisableOCA: true},
			bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if r.NumEdges() != sys.NumEdges() {
			t.Fatalf("Shards %d: restored %d edges, want %d", shards, r.NumEdges(), sys.NumEdges())
		}
		ranks[i] = r.Ranks()
	}
	if len(ranks[0]) == 0 || len(ranks[0]) != len(ranks[1]) {
		t.Fatalf("restored rank vectors have lengths %d and %d", len(ranks[0]), len(ranks[1]))
	}
	for v := range ranks[0] {
		if math.Float64bits(ranks[0][v]) != math.Float64bits(ranks[1][v]) {
			t.Fatalf("vertex %d: sharded restore ranks %v, single node %v", v, ranks[1][v], ranks[0][v])
		}
	}
}

func TestBFSAndCCFacade(t *testing.T) {
	sys := New(Config{Vertices: 10, Workers: 2, Analytics: AnalyticsBFS, Source: 0, DisableOCA: true})
	sys.ApplyBatch([]Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	sys.Flush()
	if sys.Level(2) != 2 {
		t.Fatalf("Level(2) = %d", sys.Level(2))
	}
	if sys.Component(2) != 2 {
		t.Fatal("Component without CC should be identity")
	}

	cc := New(Config{Vertices: 10, Workers: 2, Analytics: AnalyticsCC, DisableOCA: true})
	cc.ApplyBatch([]Edge{{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1}})
	cc.Flush()
	if cc.Component(5) != 3 {
		t.Fatalf("Component(5) = %d", cc.Component(5))
	}
	if cc.Level(5) != -1 {
		t.Fatal("Level without BFS should be -1")
	}
}

func TestConcurrentComputeFacade(t *testing.T) {
	sys := New(Config{Vertices: 50, Workers: 2, Analytics: AnalyticsSSSP,
		Source: 0, DisableOCA: true, ConcurrentCompute: true})
	sys.ApplyBatch([]Edge{{Src: 0, Dst: 1, Weight: 2}})
	sys.ApplyBatch([]Edge{{Src: 1, Dst: 2, Weight: 3}})
	sys.Flush()
	if d := sys.Distance(2); d != 5 {
		t.Fatalf("Distance(2) = %v with concurrent compute", d)
	}
}

// TestKitchenSink drives every adaptive feature at once — ABR, OCA,
// concurrent compute — over a real profile stream and checks the graph
// and analytics stay consistent.
func TestKitchenSink(t *testing.T) {
	sys := New(Config{
		Vertices:          5000,
		Workers:           2,
		Analytics:         AnalyticsPageRank,
		Policy:            Adaptive,
		ConcurrentCompute: true,
		ABR:               ABRParams{N: 2, Lambda: 256, TH: 465},
	})
	ref := New(Config{Vertices: 5000, Workers: 2, Policy: NeverReorder, DisableOCA: true})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		edges := make([]Edge, 0, 1500)
		for j := 0; j < 1500; j++ {
			src := VertexID(rng.Intn(5000))
			dst := VertexID(rng.Intn(5000))
			if i%2 == 0 && j%2 == 0 {
				dst = 9 // alternate hub-heavy batches
			}
			if src == dst {
				src = (src + 1) % 5000
			}
			edges = append(edges, Edge{Src: src, Dst: dst, Weight: 1})
		}
		if _, err := sys.ApplyBatch(edges); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatch(edges); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	if sys.NumEdges() != ref.NumEdges() {
		t.Fatalf("adaptive system diverged: %d edges vs %d", sys.NumEdges(), ref.NumEdges())
	}
	// The hub carries the top rank.
	best := VertexID(0)
	for v := range sys.Ranks() {
		if sys.Rank(VertexID(v)) > sys.Rank(best) {
			best = VertexID(v)
		}
	}
	if best != 9 {
		t.Fatalf("top rank at %d, want the hub (9)", best)
	}
}

// TestLockFreeFacade runs the epoch-based hot path through the public
// facade — with concurrent compute, so rounds read pinned snapshots —
// and checks it converges to the same graph as the locked reference,
// and that a GraphSnapshot view is immune to later batches.
func TestLockFreeFacade(t *testing.T) {
	sys := New(Config{Vertices: 200, Workers: 2, LockFree: true,
		Analytics: AnalyticsPageRank, ConcurrentCompute: true, DisableOCA: true})
	if !sys.LockFree() {
		t.Fatal("LockFree() accessor false on a lock-free system")
	}
	ref := New(Config{Vertices: 200, Workers: 2, Policy: NeverReorder, DisableOCA: true})
	edges := randomEdges(11, 3000, 200)
	for lo := 0; lo < len(edges); lo += 500 {
		if _, err := sys.ApplyBatch(edges[lo : lo+500]); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatch(edges[lo : lo+500]); err != nil {
			t.Fatal(err)
		}
	}

	// A pinned snapshot must keep showing its batch boundary even as
	// more batches land in the live store.
	snap, release := sys.GraphSnapshot()
	before := snap.NumEdges()
	if _, err := sys.ApplyBatch([]Edge{{Src: 190, Dst: 191, Weight: 1}, {Src: 191, Dst: 192, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := snap.NumEdges(); got != before {
		t.Fatalf("pinned snapshot moved: %d edges, want %d", got, before)
	}
	release()
	ref.ApplyBatch([]Edge{{Src: 190, Dst: 191, Weight: 1}, {Src: 191, Dst: 192, Weight: 1}})

	sys.Flush()
	if sys.NumEdges() != ref.NumEdges() {
		t.Fatalf("lock-free system diverged: %d edges vs %d", sys.NumEdges(), ref.NumEdges())
	}
	for _, e := range edges[:100] {
		if sys.Graph().HasEdge(e.Src, e.Dst) != ref.Graph().HasEdge(e.Src, e.Dst) {
			t.Fatalf("edge (%d,%d) presence differs from reference", e.Src, e.Dst)
		}
	}
	if len(sys.Ranks()) == 0 {
		t.Fatal("no ranks from concurrent compute over pinned snapshots")
	}
}

// TestLockFreeSnapshotRestore round-trips WriteSnapshot across modes:
// a lock-free system's snapshot restores into a locked system and vice
// versa, with streaming continuing on the restored instance.
func TestLockFreeSnapshotRestore(t *testing.T) {
	src := New(Config{Vertices: 100, Workers: 2, LockFree: true, DisableOCA: true})
	var edges []Edge
	for i := 0; i < 30; i++ {
		edges = append(edges, Edge{Src: VertexID(i + 10), Dst: 7, Weight: Weight(i%5 + 1)})
	}
	if _, err := src.ApplyBatch(edges); err != nil {
		t.Fatal(err)
	}
	src.Flush()

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	locked, err := NewFromSnapshot(Config{Workers: 2, DisableOCA: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if locked.NumEdges() != src.NumEdges() {
		t.Fatalf("locked restore: %d edges, want %d", locked.NumEdges(), src.NumEdges())
	}

	buf.Reset()
	if err := locked.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lockfree, err := NewFromSnapshot(Config{Workers: 2, LockFree: true, DisableOCA: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !lockfree.LockFree() || lockfree.NumEdges() != src.NumEdges() {
		t.Fatalf("lock-free restore: %d edges, want %d", lockfree.NumEdges(), src.NumEdges())
	}
	if _, err := lockfree.ApplyBatch([]Edge{{Src: 1, Dst: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if !lockfree.Graph().HasEdge(1, 2) {
		t.Fatal("post-restore batch lost on lock-free system")
	}
}

func TestShadowStoreFacade(t *testing.T) {
	sys := New(Config{Vertices: 64, ShadowStore: "tango"})
	for id := 0; id < 4; id++ {
		var edges []Edge
		for i := 0; i < 100; i++ {
			edges = append(edges, Edge{Src: VertexID(i % 16), Dst: VertexID((i + id) % 64), Weight: 1})
		}
		if _, err := sys.ApplyBatch(edges); err != nil {
			t.Fatal(err)
		}
	}
	rep := sys.ShadowReport()
	if rep.Kind == "" {
		t.Fatal("shadow report empty with ShadowStore set")
	}
	if rep.Edges != sys.NumEdges() {
		t.Fatalf("shadow edges %d, primary %d", rep.Edges, sys.NumEdges())
	}
	if New(Config{Vertices: 4}).ShadowReport().Kind != "" {
		t.Fatal("shadow report non-empty without ShadowStore")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown ShadowStore name did not panic")
		}
	}()
	New(Config{Vertices: 4, ShadowStore: "csr"})
}

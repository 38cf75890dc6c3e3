package compute

import (
	"math"
	"math/rand"
	"testing"

	"streamgraph/internal/graph"
)

// relL1 is Σ|got−want| over the summed want of g's vertices with
// out-edges, the distance ErrorBound is stated in.
func relL1(g graph.Store, got, want []float64) float64 {
	diff, total := 0.0, 0.0
	for v := range want {
		diff += math.Abs(got[v] - want[v])
		if g.OutDegree(graph.VertexID(v)) > 0 {
			total += want[v]
		}
	}
	return diff / total
}

// converged is a static reference run far below any engine tolerance.
func converged(g graph.Store, weighted bool) []float64 {
	ref := &PageRank{Workers: 1, Tol: 1e-12, MaxIter: 200, Weighted: weighted}
	ref.Update(g)
	return ref.Ranks()
}

// applyBatch ingests b the way the update engines do: inserts (which
// reweight a live edge) before deletes.
func applyBatch(g graph.Mutable, b *graph.Batch) {
	ins, dels := b.Split()
	for _, e := range ins {
		g.InsertEdge(e)
	}
	for _, e := range dels {
		g.DeleteEdge(e.Src, e.Dst)
	}
}

// TestIncrementalPageRankOutDegreeChange: a new out-edge of 0 halves
// what 0 gives 1, although neither 0's rank nor 1's in-list moves.
func TestIncrementalPageRankOutDegreeChange(t *testing.T) {
	g := graph.NewAdjacencyStore(4)
	pr := &PageRank{Workers: 1, Incremental: true}
	first := &graph.Batch{ID: 0, Edges: []graph.Edge{{Src: 3, Dst: 0, Weight: 1}, {Src: 0, Dst: 1, Weight: 1}}}
	applyBatch(g, first)
	pr.Update(g, first)
	second := &graph.Batch{ID: 1, Edges: []graph.Edge{{Src: 0, Dst: 2, Weight: 1}}}
	applyBatch(g, second)
	pr.Update(g, second)
	// x3 = 0.15, x0 = 0.15 + 0.85·0.15, x1 = 0.15 + 0.85·x0/2; rank = x/4.
	const want = (0.15 + 0.85*(0.15+0.85*0.15)/2) / 4
	if got := pr.Rank(1); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Rank(1) = %.6f after 0 gained an out-edge, want %.6f", got, want)
	}
}

// TestIncrementalPageRankZeroAlloc: a warmed single-worker round
// allocates nothing — no per-round frontier marks, no closures.
func TestIncrementalPageRankZeroAlloc(t *testing.T) {
	g, _ := randomStore(5, 2000, 12000, false)
	pr := &PageRank{Workers: 1, Incremental: true}
	pr.Update(g)
	rng := rand.New(rand.NewSource(6))
	var edges []graph.Edge
	for len(edges) < 200 {
		src := graph.VertexID(rng.Intn(2000))
		dst := graph.VertexID(rng.Intn(2000))
		if src != dst && !g.HasEdge(src, dst) {
			edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
		}
	}
	dels := make([]graph.Edge, len(edges))
	for i, e := range edges {
		dels[i] = graph.Edge{Src: e.Src, Dst: e.Dst, Delete: true}
	}
	ins, del := &graph.Batch{Edges: edges}, &graph.Batch{Edges: dels}
	round := func() {
		for _, e := range edges {
			g.InsertEdge(e)
		}
		pr.Update(g, ins)
		for _, e := range edges {
			g.DeleteEdge(e.Src, e.Dst)
		}
		pr.Update(g, del)
	}
	for i := 0; i < 5; i++ {
		round()
	}
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Fatalf("warmed incremental round allocates %v times, want 0", a)
	}
}

// TestIncrementalPageRankParallel drives rounds whose seed lists exceed
// parallelMin, so the shared-phase atomics run (and race-check) for real.
func TestIncrementalPageRankParallel(t *testing.T) {
	const verts = 40000
	rng := rand.New(rand.NewSource(9))
	g := graph.NewAdjacencyStore(verts)
	pr := &PageRank{Workers: 4, Incremental: true}
	for bi := 0; bi < 3; bi++ {
		b := &graph.Batch{ID: bi}
		for len(b.Edges) < 30000 {
			src, dst := graph.VertexID(rng.Intn(verts)), graph.VertexID(rng.Intn(verts))
			if bi > 0 && rng.Intn(8) == 0 {
				b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: dst, Delete: true})
				continue
			}
			b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
		}
		applyBatch(g, b)
		pr.Update(g, b)
		if d, bound := relL1(g, pr.Ranks(), converged(g, false)), pr.ErrorBound(); d > bound {
			t.Fatalf("batch %d: relative L1 %v from converged, bound %v", bi, d, bound)
		}
	}
}

// TestPageRankPanicRebuilds: a round that dies mid-way leaves the state
// dirty, and the next Update rebuilds it from the store.
func TestPageRankPanicRebuilds(t *testing.T) {
	g, batches := randomStore(7, 300, 3000, false)
	pr := &PageRank{Workers: 1, Incremental: true}
	pr.Update(g, batches[0])
	func() {
		defer func() { _ = recover() }()
		pr.Update(panicStore{g}, batches[1])
	}()
	if !pr.dirty {
		t.Fatal("a panicked round left the state clean")
	}
	pr.Update(g, batches[2])
	if d := relL1(g, pr.Ranks(), converged(g, false)); d > pr.ErrorBound() {
		t.Fatalf("after rebuild: relative L1 %v, bound %v", d, pr.ErrorBound())
	}
}

// panicStore fails its first out-neighbour walk.
type panicStore struct{ graph.Store }

func (panicStore) ForEachOut(graph.VertexID, func(graph.Neighbor)) { panic("store fault") }

// FuzzPageRankIncremental replays random insert, delete and reweight
// streams, 1–3 batches per round, at Workers 1 and 4, weighted or not,
// on the adjacency store (direct slices) or the DAH store (visitors),
// and checks every round against a converged static reference within
// ErrorBound.
func FuzzPageRankIncremental(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{20, 3, 200, 1, 2, 130, 2, 3, 65, 3, 1, 4, 5, 6, 1, 0, 2, 90, 9, 9, 77, 5, 4, 3, 2, 1})
	f.Add([]byte{3, 1, 0, 1, 0, 1, 2, 0, 2, 0, 0, 129, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		verts := 2 + int(data[0]%40)
		weighted, workers := data[1]&1 == 1, 1+3*int(data[1]>>1&1)
		var g graph.Mutable = graph.NewAdjacencyStore(verts)
		if data[1]>>2&1 == 1 {
			g = graph.NewDAHStore(verts)
		}
		data = data[2:]
		pr := &PageRank{Workers: workers, Incremental: true, Weighted: weighted}
		pr.Update(g)
		var round []*graph.Batch
		for id := 0; len(data) >= 3; id++ {
			// One op per 3 bytes: kind, src, dst. Bit 7 of the kind
			// deletes, bit 6 closes the batch; a round closes after three
			// batches or before an op with bit 5 set.
			b := &graph.Batch{ID: id}
			for len(data) >= 3 {
				op, src, dst := data[0], graph.VertexID(int(data[1])%verts), graph.VertexID(int(data[2])%verts)
				data = data[3:]
				e := graph.Edge{Src: src, Dst: dst, Weight: graph.Weight(1 + op%8)}
				if op>>7 == 1 {
					e = graph.Edge{Src: src, Dst: dst, Delete: true}
				}
				b.Edges = append(b.Edges, e)
				if op>>6&1 == 1 {
					break
				}
			}
			applyBatch(g, b)
			round = append(round, b)
			if len(round) < 3 && len(data) >= 3 && data[0]>>5&1 == 0 {
				continue
			}
			pr.Update(g, round...)
			round = round[:0]
			if d, bound := relL1(g, pr.Ranks(), converged(g, weighted)), pr.ErrorBound(); d > bound+1e-5 {
				t.Fatalf("batch %d (%T, weighted=%v, workers=%d): relative L1 %v from converged, bound %v",
					id, g, weighted, workers, d, bound)
			}
		}
	})
}

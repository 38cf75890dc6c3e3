package update

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
)

// randomBatches generates batches where each (src, dst) pair appears
// at most once per batch, so that weight outcomes are deterministic
// under every engine's scheduling (see package doc on semantics).
func randomBatches(seed int64, nBatches, size, vspace int, withDeletes bool) []*graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out []*graph.Batch
	type pair struct{ s, d graph.VertexID }
	var emitted []pair
	for bi := 0; bi < nBatches; bi++ {
		seen := make(map[pair]bool)
		b := &graph.Batch{ID: bi}
		for len(b.Edges) < size {
			if withDeletes && len(emitted) > 0 && rng.Intn(4) == 0 {
				p := emitted[rng.Intn(len(emitted))]
				if seen[p] {
					continue
				}
				seen[p] = true
				b.Edges = append(b.Edges, graph.Edge{Src: p.s, Dst: p.d, Delete: true})
				continue
			}
			p := pair{graph.VertexID(rng.Intn(vspace)), graph.VertexID(rng.Intn(vspace))}
			if p.s == p.d || seen[p] {
				continue
			}
			seen[p] = true
			b.Edges = append(b.Edges, graph.Edge{Src: p.s, Dst: p.d, Weight: graph.Weight(rng.Intn(50) + 1)})
			emitted = append(emitted, p)
		}
		out = append(out, b)
	}
	return out
}

// applyRef applies a batch to the oracle with the engines' semantics:
// all insertions, then all deletions.
func applyRef(ref map[[2]graph.VertexID]graph.Weight, b *graph.Batch) {
	ins, dels := b.Split()
	for _, e := range ins {
		ref[[2]graph.VertexID{e.Src, e.Dst}] = e.Weight
	}
	for _, e := range dels {
		delete(ref, [2]graph.VertexID{e.Src, e.Dst})
	}
}

func checkStoreMatchesRef(t *testing.T, s *graph.AdjacencyStore, ref map[[2]graph.VertexID]graph.Weight, engine string) {
	t.Helper()
	if s.NumEdges() != len(ref) {
		t.Fatalf("%s: NumEdges = %d, want %d", engine, s.NumEdges(), len(ref))
	}
	inCount := 0
	for v := 0; v < s.NumVertices(); v++ {
		id := graph.VertexID(v)
		s.ForEachOut(id, func(n graph.Neighbor) {
			w, ok := ref[[2]graph.VertexID{id, n.ID}]
			if !ok {
				t.Fatalf("%s: unexpected edge %d->%d", engine, v, n.ID)
			}
			if w != n.Weight {
				t.Fatalf("%s: edge %d->%d weight %v, want %v", engine, v, n.ID, n.Weight, w)
			}
		})
		s.ForEachIn(id, func(n Neighbor) {
			inCount++
			if _, ok := ref[[2]graph.VertexID{n.ID, id}]; !ok {
				t.Fatalf("%s: unexpected in-edge %d<-%d", engine, v, n.ID)
			}
		})
	}
	if inCount != len(ref) {
		t.Fatalf("%s: in-edge mirror count %d, want %d", engine, inCount, len(ref))
	}
}

// Neighbor aliases graph.Neighbor for brevity in the test above.
type Neighbor = graph.Neighbor

func engines() []Engine {
	cfg := Config{Workers: 4}
	forced := Config{Workers: 4, MinCoalesceRun: 1} // coalesce every run
	return []Engine{
		&Baseline{Cfg: cfg},
		&Reordered{Cfg: cfg},
		&Reordered{Cfg: cfg, USC: true},
		&Reordered{Cfg: forced, USC: true},
	}
}

func TestEnginesMatchOracle(t *testing.T) {
	for _, withDeletes := range []bool{false, true} {
		batches := randomBatches(7, 6, 2000, 300, withDeletes)
		for _, e := range engines() {
			s := graph.NewAdjacencyStore(300)
			ref := make(map[[2]graph.VertexID]graph.Weight)
			for _, b := range batches {
				e.Apply(s, b)
				applyRef(ref, b)
			}
			checkStoreMatchesRef(t, s, ref, e.Name())
		}
	}
}

func TestEnginesMatchOracleForcedUSC(t *testing.T) {
	// MinCoalesceRun=1 forces the hash-table path for every run,
	// including degree-1 runs.
	e := &Reordered{Cfg: Config{Workers: 4, MinCoalesceRun: 1}, USC: true}
	batches := randomBatches(11, 5, 1500, 100, true)
	s := graph.NewAdjacencyStore(100)
	ref := make(map[[2]graph.VertexID]graph.Weight)
	for _, b := range batches {
		e.Apply(s, b)
		applyRef(ref, b)
	}
	checkStoreMatchesRef(t, s, ref, "ro+usc(min=1)")
}

// TestEnginesAgreeProperty: the central invariant — every engine
// produces the identical graph for the same batch sequence.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		batches := randomBatches(seed, 3, 800, 120, true)
		var stores []*graph.AdjacencyStore
		for _, e := range engines() {
			s := graph.NewAdjacencyStore(120)
			for _, b := range batches {
				e.Apply(s, b)
			}
			stores = append(stores, s)
		}
		base := dump(stores[0])
		for _, s := range stores[1:] {
			if dump(s) != base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// dump renders the full edge set deterministically.
func dump(s *graph.AdjacencyStore) string {
	var sb []byte
	for v := 0; v < s.NumVertices(); v++ {
		var ns []graph.Neighbor
		s.ForEachOut(graph.VertexID(v), func(n graph.Neighbor) { ns = append(ns, n) })
		sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
		for _, n := range ns {
			sb = append(sb, byte(v), byte(v>>8), byte(n.ID), byte(n.ID>>8), byte(n.Weight))
		}
	}
	return string(sb)
}

// TestAdjacencyOrderDeterministic: two engines fed the same stream
// leave every adjacency list in the same order, so PageRank's float
// summation order and snapshot bytes repeat from run to run. The
// skewed batches give the hubs coalesced runs with many fresh keys,
// which is where an order taken from a Go map would differ.
func TestAdjacencyOrderDeterministic(t *testing.T) {
	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 3, Vertices: 2000, BatchSize: 4000, Batches: 8}
	batches := spec.Generate()
	build := func() *graph.AdjacencyStore {
		s := graph.NewAdjacencyStore(spec.Vertices)
		e := &Reordered{Cfg: Config{Workers: 4}, USC: true}
		for _, b := range batches {
			e.Apply(s, b)
		}
		return s
	}
	a, b := build(), build()
	for v := 0; v < spec.Vertices; v++ {
		id := graph.VertexID(v)
		if !slices.Equal(a.OutUnsafe(id), b.OutUnsafe(id)) {
			t.Fatalf("vertex %d: out-adjacency order differs between two runs of the same stream", v)
		}
		if !slices.Equal(a.InUnsafe(id), b.InUnsafe(id)) {
			t.Fatalf("vertex %d: in-adjacency order differs between two runs of the same stream", v)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	batches := randomBatches(3, 1, 1000, 200, false)
	b := batches[0]

	s1 := graph.NewAdjacencyStore(200)
	base := (&Baseline{Cfg: Config{Workers: 4}}).Apply(s1, b)
	if base.EdgesApplied != 1000 {
		t.Fatalf("baseline EdgesApplied = %d", base.EdgesApplied)
	}
	if base.Locks != 2000 { // one lock per endpoint per edge
		t.Fatalf("baseline Locks = %d", base.Locks)
	}
	if base.Sort != 0 {
		t.Fatal("baseline should not sort")
	}
	if base.UniqueVerts == 0 {
		t.Fatal("baseline should count unique vertices")
	}

	s2 := graph.NewAdjacencyStore(200)
	ro := (&Reordered{Cfg: Config{Workers: 4}}).Apply(s2, b)
	if ro.EdgesApplied != 1000 {
		t.Fatalf("ro EdgesApplied = %d", ro.EdgesApplied)
	}
	if ro.Locks != 0 {
		t.Fatalf("ro Locks = %d, want 0", ro.Locks)
	}
	if ro.Total < ro.Sort || ro.Total < ro.Update {
		t.Fatal("ro Total must cover Sort and Update")
	}

	s3 := graph.NewAdjacencyStore(200)
	usc := (&Reordered{Cfg: Config{Workers: 4, MinCoalesceRun: 1}, USC: true}).Apply(s3, b)
	if usc.HashOps == 0 {
		t.Fatal("usc should count hash operations")
	}
	if usc.Locks != 0 {
		t.Fatalf("usc Locks = %d, want 0", usc.Locks)
	}
}

// TestUSCSavesComparisons: on a high-degree batch, USC performs far
// fewer adjacency comparisons than plain RO — the work-efficiency
// claim behind Fig. 17.
func TestUSCSavesComparisons(t *testing.T) {
	p, err := gen.ProfileByName("wiki")
	if err != nil {
		t.Fatal(err)
	}
	p.WarmupEdges = 0
	st := gen.NewStreamSeed(p, 42)
	// Pre-populate the graph so edge arrays are long, then measure.
	warm := st.NextBatch(50000)
	target := st.NextBatch(50000)

	s1 := graph.NewAdjacencyStore(p.Vertices)
	ro := &Reordered{Cfg: Config{Workers: 4}}
	ro.Apply(s1, warm)
	roStats := ro.Apply(s1, target)

	s2 := graph.NewAdjacencyStore(p.Vertices)
	usc := &Reordered{Cfg: Config{Workers: 4}, USC: true}
	usc.Apply(s2, warm)
	uscStats := usc.Apply(s2, target)

	if uscStats.Comparisons*2 > roStats.Comparisons {
		t.Fatalf("USC comparisons %d not substantially below RO %d",
			uscStats.Comparisons, roStats.Comparisons)
	}
	if dump(s1) != dump(s2) {
		t.Fatal("USC and RO disagree on final graph")
	}
}

// TestOverlapCounting: OCA's counters see the overlap between
// consecutive batches exactly.
func TestOverlapCounting(t *testing.T) {
	s := graph.NewAdjacencyStore(10)
	e := &Baseline{Cfg: Config{Workers: 1}}
	b0 := &graph.Batch{ID: 0, Edges: []graph.Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1},
	}}
	st0 := e.Apply(s, b0)
	if st0.UniqueVerts != 4 || st0.OverlapVerts != 0 {
		t.Fatalf("batch 0: unique=%d overlap=%d", st0.UniqueVerts, st0.OverlapVerts)
	}
	b1 := &graph.Batch{ID: 1, Edges: []graph.Edge{
		{Src: 1, Dst: 2, Weight: 2}, // both overlap
		{Src: 5, Dst: 6, Weight: 1}, // both new
	}}
	st1 := e.Apply(s, b1)
	if st1.UniqueVerts != 4 || st1.OverlapVerts != 2 {
		t.Fatalf("batch 1: unique=%d overlap=%d", st1.UniqueVerts, st1.OverlapVerts)
	}
}

func TestEngineNames(t *testing.T) {
	if (&Baseline{}).Name() != "baseline" {
		t.Fatal("baseline name")
	}
	if (&Reordered{}).Name() != "ro" {
		t.Fatal("ro name")
	}
	if (&Reordered{USC: true}).Name() != "ro+usc" {
		t.Fatal("usc name")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.workers() < 1 {
		t.Fatal("default workers must be positive")
	}
	if c.minCoalesce() != 8 {
		t.Fatalf("default minCoalesce = %d", c.minCoalesce())
	}
}

// TestParallelRunsCoversEveryRunOnce: the run queue hands each vertex
// run of a sorted view to exactly one worker, whole, even when a hub's
// run spans many claims or a claim falls entirely inside one run.
func TestParallelRunsCoversEveryRunOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var view []graph.Edge
	for v := graph.VertexID(0); v < 200; v++ {
		n := 1 + rng.Intn(4)
		switch v {
		case 3, 150:
			n = 1000 // hub runs crossing several claims
		case 151:
			n = chunk // a run exactly one claim long
		}
		for i := 0; i < n; i++ {
			view = append(view, graph.Edge{Src: v, Dst: v})
		}
	}
	for _, workers := range []int{1, 2, 4} {
		seen := make([]int32, len(view))
		var mu sync.Mutex
		parallelRuns(view, true, workers, func(k, lo, hi int) {
			if lo > 0 && view[lo-1].Src == view[lo].Src || hi < len(view) && view[hi-1].Src == view[hi].Src {
				t.Errorf("workers=%d: span [%d,%d) splits a run", workers, lo, hi)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: edge %d applied %d times", workers, i, c)
			}
		}
	}
}

package graph

import (
	"math/rand"
	"sync"
	"testing"
)

func TestTangoStoreAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		runStoreOps(t, func(n int) Mutable { return NewTangoStore(n) }, seed, 3000)
	}
}

// TestTangoTierTransitions walks one vertex through every
// representation tier in both directions and verifies the adjacency
// survives each transition intact.
func TestTangoTierTransitions(t *testing.T) {
	s := NewTangoStore(4)
	const hub = VertexID(0)

	check := func(wantDeg int, wantRep string) {
		t.Helper()
		if got := s.OutDegree(hub); got != wantDeg {
			t.Fatalf("OutDegree = %d, want %d", got, wantDeg)
		}
		if got := s.at(hub).out.rep(); got != wantRep {
			t.Fatalf("rep = %s, want %s (degree %d)", got, wantRep, wantDeg)
		}
		for d := 1; d <= wantDeg; d++ {
			if !s.HasEdge(hub, VertexID(d)) {
				t.Fatalf("edge %d->%d lost in %s tier", hub, d, wantRep)
			}
		}
		if s.HasEdge(hub, 9999) {
			t.Fatal("phantom edge present")
		}
	}

	// Inline → sorted → hash as the degree climbs.
	for d := 1; d <= tangoInlineCap; d++ {
		s.InsertEdge(Edge{Src: hub, Dst: VertexID(d), Weight: Weight(d)})
	}
	check(tangoInlineCap, RepInline)
	s.InsertEdge(Edge{Src: hub, Dst: VertexID(tangoInlineCap + 1), Weight: 1})
	check(tangoInlineCap+1, RepSorted)
	for d := tangoInlineCap + 2; d <= tangoHashMin; d++ {
		s.InsertEdge(Edge{Src: hub, Dst: VertexID(d), Weight: Weight(d)})
	}
	check(tangoHashMin, RepSorted)
	s.InsertEdge(Edge{Src: hub, Dst: VertexID(tangoHashMin + 1), Weight: 1})
	check(tangoHashMin+1, RepHash)

	// Hash → sorted → inline as deletes drain the vertex. Delete from
	// the top so the remaining IDs stay 1..degree for check().
	for d := tangoHashMin + 1; d > tangoHashDemote-1; d-- {
		if !s.DeleteEdge(hub, VertexID(d)) {
			t.Fatalf("DeleteEdge(%d) failed", d)
		}
	}
	check(tangoHashDemote-1, RepSorted)
	for d := tangoHashDemote - 1; d > tangoInlineDemote; d-- {
		if !s.DeleteEdge(hub, VertexID(d)) {
			t.Fatalf("DeleteEdge(%d) failed", d)
		}
	}
	check(tangoInlineDemote, RepInline)

	if s.Transitions() < 4 {
		t.Fatalf("Transitions = %d, want >= 4", s.Transitions())
	}
	census := s.Census()
	if census.Inline == 0 || census.Transitions != s.Transitions() {
		t.Fatalf("census = %+v", census)
	}
}

// TestTangoReinsertUpdatesWeight pins the shared store semantics
// (re-insert updates the weight, last write wins) in every tier.
func TestTangoReinsertUpdatesWeight(t *testing.T) {
	for _, degree := range []int{2, 10, 50} { // inline, sorted, hash
		s := NewTangoStore(4)
		for d := 1; d <= degree; d++ {
			s.InsertEdge(Edge{Src: 0, Dst: VertexID(d), Weight: 1})
		}
		if s.InsertEdge(Edge{Src: 0, Dst: 1, Weight: 42}) {
			t.Fatalf("degree %d: re-insert reported a new edge", degree)
		}
		found := false
		s.ForEachOut(0, func(n Neighbor) {
			if n.ID == 1 {
				found = true
				if n.Weight != 42 {
					t.Fatalf("degree %d: weight = %v, want 42", degree, n.Weight)
				}
			}
		})
		if !found {
			t.Fatalf("degree %d: neighbor 1 missing", degree)
		}
		if s.NumEdges() != degree {
			t.Fatalf("degree %d: NumEdges = %d", degree, s.NumEdges())
		}
	}
}

func TestTangoDeleteAbsentIsNoop(t *testing.T) {
	s := NewTangoStore(4)
	if s.DeleteEdge(0, 1) {
		t.Fatal("delete from empty store succeeded")
	}
	s.InsertEdge(Edge{Src: 0, Dst: 1, Weight: 1})
	if s.DeleteEdge(0, 2) {
		t.Fatal("delete of absent edge succeeded")
	}
	if s.DeleteEdge(1000, 1000) {
		t.Fatal("delete beyond vertex space succeeded")
	}
	if s.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", s.NumEdges())
	}
}

func TestTangoGrowth(t *testing.T) {
	s := NewTangoStore(1)
	s.InsertEdge(Edge{Src: 100, Dst: 200, Weight: 1})
	if s.NumVertices() < 201 {
		t.Fatalf("NumVertices = %d after inserting vertex 200", s.NumVertices())
	}
	if !s.HasEdge(100, 200) {
		t.Fatal("edge lost across growth")
	}
	if s.OutDegree(100000) != 0 || s.InDegree(100000) != 0 {
		t.Fatal("out-of-range degree should be 0")
	}
	if s.HasEdge(100000, 0) {
		t.Fatal("out-of-range HasEdge should be false")
	}
}

func TestTangoLatestBID(t *testing.T) {
	s := NewTangoStore(4)
	if s.LatestBID(1) != -1 {
		t.Fatal("initial latest_bid should be -1")
	}
	if prev := s.SwapLatestBID(1, 7); prev != -1 {
		t.Fatalf("SwapLatestBID returned %d", prev)
	}
	s.SetLatestBID(1, 9)
	if s.LatestBID(1) != 9 {
		t.Fatalf("LatestBID = %d", s.LatestBID(1))
	}
}

// TestTangoConcurrentInsert mirrors the adjacency-store concurrency
// test: overlapping concurrent writers must produce exactly the union,
// including across tier transitions on the contended vertices. An
// insert racing a delete of the same edge is the case that breaks an
// insert or delete that is not atomic across the two endpoints (the
// edge survives in one list only); one round hits that window rarely,
// so the scenario is repeated.
func TestTangoConcurrentInsert(t *testing.T) {
	for round := 0; round < 100; round++ {
		s := NewTangoStore(16)
		const workers = 8
		const perWorker = 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWorker; i++ {
					if rng.Intn(4) == 0 {
						s.DeleteEdge(VertexID(rng.Intn(16)), VertexID(rng.Intn(64)))
					} else {
						s.InsertEdge(Edge{
							Src:    VertexID(rng.Intn(16)),
							Dst:    VertexID(rng.Intn(64)),
							Weight: 1,
						})
					}
				}
			}(w)
		}
		wg.Wait()
		if err := CheckMirror(s); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestTangoMatchesDAH cross-checks the two degree-aware stores on a
// shared op stream, exercising all tiers via hub vertices.
func TestTangoMatchesDAH(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tango := NewTangoStore(8)
	dah := NewDAHStore(8)
	for i := 0; i < 20000; i++ {
		// Zipf-ish: vertex 0 sources a quarter of all edges, so it
		// marches deep into the hash tier while tails stay inline.
		src := VertexID(rng.Intn(64))
		if rng.Intn(4) == 0 {
			src = 0
		}
		dst := VertexID(rng.Intn(256))
		if rng.Intn(5) == 0 {
			tango.DeleteEdge(src, dst)
			dah.DeleteEdge(src, dst)
		} else {
			e := Edge{Src: src, Dst: dst, Weight: Weight(rng.Intn(9)) + 1}
			tango.InsertEdge(e)
			dah.InsertEdge(e)
		}
	}
	if tango.NumEdges() != dah.NumEdges() {
		t.Fatalf("NumEdges: tango %d, dah %d", tango.NumEdges(), dah.NumEdges())
	}
	for v := VertexID(0); v < 64; v++ {
		a := sortedNeighbors(tango, v, true)
		d := sortedNeighbors(dah, v, true)
		if len(a) != len(d) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(d))
		}
		for i := range a {
			if a[i] != d[i] {
				t.Fatalf("vertex %d: neighbor %v vs %v", v, a[i], d[i])
			}
		}
	}
	if err := CheckMirror(tango); err != nil {
		t.Fatal(err)
	}
	c := tango.Census()
	if c.Hash == 0 || c.Inline == 0 {
		t.Fatalf("expected both hash and inline vertices, census = %+v", c)
	}
}

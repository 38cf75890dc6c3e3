package gen

import (
	"testing"

	"streamgraph/internal/graph"
)

// TestAdvSpecDeterministic: two generations from one spec agree on
// every batch and on the live-edge list, in order, that the next
// deletions draw from. Twelve batches let a mixed stream delete live
// edges after a duplicate-heavy batch reconciled its deletions.
func TestAdvSpecDeterministic(t *testing.T) {
	for _, kind := range AdvKinds() {
		spec := AdvSpec{Kind: kind, Seed: 11, Vertices: 128, BatchSize: 200, Batches: 12}
		a, ga := spec.generate()
		b, gb := spec.generate()
		if len(a) != len(b) {
			t.Fatalf("%v: batch counts differ", kind)
		}
		for i := range a {
			if a[i].ID != i {
				t.Fatalf("%v: batch %d has ID %d", kind, i, a[i].ID)
			}
			if len(a[i].Edges) != len(b[i].Edges) {
				t.Fatalf("%v: batch %d sizes differ", kind, i)
			}
			for j := range a[i].Edges {
				if a[i].Edges[j] != b[i].Edges[j] {
					t.Fatalf("%v: batch %d edge %d differs: %v vs %v",
						kind, i, j, a[i].Edges[j], b[i].Edges[j])
				}
			}
		}
		if len(ga.live) != len(gb.live) {
			t.Fatalf("%v: live sets differ in size: %d vs %d", kind, len(ga.live), len(gb.live))
		}
		for i := range ga.live {
			if ga.live[i] != gb.live[i] {
				t.Fatalf("%v: live list differs at %d: %v vs %v", kind, i, ga.live[i], gb.live[i])
			}
		}
	}
}

func TestAdvSpecBoundsAndShape(t *testing.T) {
	const verts = 64
	for _, kind := range AdvKinds() {
		spec := AdvSpec{Kind: kind, Seed: 5, Vertices: verts, BatchSize: 150, Batches: 6}
		var deletes, inserts int
		dupKeys := false
		for _, b := range spec.Generate() {
			if len(b.Edges) < spec.BatchSize {
				t.Fatalf("%v: batch %d has %d edges, want >= %d", kind, b.ID, len(b.Edges), spec.BatchSize)
			}
			seen := make(map[[2]graph.VertexID]int)
			for _, e := range b.Edges {
				if int(e.Src) >= verts || int(e.Dst) >= verts {
					t.Fatalf("%v: edge %v outside vertex space %d", kind, e, verts)
				}
				if e.Delete {
					deletes++
					if e.Weight != 0 {
						t.Fatalf("%v: deletion carries weight: %v", kind, e)
					}
				} else {
					inserts++
					if e.Weight < 1 {
						t.Fatalf("%v: insertion without weight: %v", kind, e)
					}
					k := [2]graph.VertexID{e.Src, e.Dst}
					seen[k]++
					if seen[k] > 1 {
						dupKeys = true
						// Intra-batch duplicate insertions must carry
						// one weight (baseline-determinism contract).
						if e.Weight != advWeight(e.Src, e.Dst, b.ID) {
							t.Fatalf("%v: duplicate key %v with unstable weight", kind, k)
						}
					}
				}
			}
		}
		if inserts == 0 {
			t.Fatalf("%v: stream has no insertions", kind)
		}
		switch kind {
		case AdvDeleteHeavy, AdvDuplicateHeavy, AdvMixed:
			if deletes == 0 {
				t.Fatalf("%v: stream has no deletions", kind)
			}
		}
		if kind == AdvDuplicateHeavy && !dupKeys {
			t.Fatal("duplicate-heavy stream produced no duplicate keys")
		}
	}
}

package reorder

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"streamgraph/internal/graph"
)

// TestPartitionerMatchesStableSort checks both views and their runs
// against sort.SliceStable on the shapes the radix passes treat
// differently. checkView (fuzz_test.go) is the reference comparison.
func TestPartitionerMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func(n int, key func() graph.VertexID, deleteEvery int) []graph.Edge {
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{Src: key(), Dst: key(), Weight: graph.Weight(i),
				Delete: deleteEvery > 0 && i%deleteEvery == 0}
		}
		return edges
	}
	cases := []struct {
		name  string
		edges []graph.Edge
	}{
		{"empty", nil},
		{"single edge", []graph.Edge{{Src: 5, Dst: 3, Weight: 1}}},
		{"all one key", random(500, func() graph.VertexID { return 7 }, 0)},
		// Keys at and above 2^24 differ in the top radix digit, which
		// dense vertex spaces never exercise.
		{"keys >= 2^24", random(3000, func() graph.VertexID {
			return graph.VertexID(1<<24 + rng.Intn(1<<8)<<22 + rng.Intn(1<<12))
		}, 0)},
		{"max key", random(64, func() graph.VertexID { return ^graph.VertexID(0) - graph.VertexID(rng.Intn(3)) }, 0)},
		{"delete-interleaved", random(4000, func() graph.VertexID { return graph.VertexID(rng.Intn(60)) }, 3)},
		{"two digits", random(5000, func() graph.VertexID { return graph.VertexID(rng.Intn(1 << 19)) }, 5)},
	}
	var p Partitioner // one scratch across the cases: growth and reuse
	for _, c := range cases {
		in := slices.Clone(c.edges)
		p.Partition(c.edges)
		if !slices.Equal(in, c.edges) {
			t.Fatalf("%s: input mutated", c.name)
		}
		checkView(t, c.name+"/BySrc", in, p.BySrc, p.RunsSrc, func(e graph.Edge) graph.VertexID { return e.Src })
		checkView(t, c.name+"/ByDst", in, p.ByDst, p.RunsDst, func(e graph.Edge) graph.VertexID { return e.Dst })

		// Both degree paths agree with a count over the reference order.
		want := []int{}
		byDst := slices.Clone(in)
		sort.SliceStable(byDst, func(i, j int) bool { return byDst[i].Dst < byDst[j].Dst })
		for i := range byDst {
			if i > 0 && byDst[i].Dst == byDst[i-1].Dst {
				want[len(want)-1]++
			} else {
				want = append(want, 1)
			}
		}
		if got := p.DstRunLens(); !slices.Equal(got, want) {
			t.Fatalf("%s: DstRunLens = %v, want %v", c.name, got, want)
		}
		if got := p.DstDegrees(c.edges); !slices.Equal(got, want) {
			t.Fatalf("%s: DstDegrees = %v, want %v", c.name, got, want)
		}
	}
}

// TestPartitionerWarmZeroAlloc: a partitioner that has seen a batch of
// this size allocates nothing for the next one, on either path.
func TestPartitionerWarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := randomBatch(rng, 10000, 50000)
	var p Partitioner
	p.Partition(b.Edges)
	p.DstRunLens()
	if allocs := testing.AllocsPerRun(10, func() {
		p.Partition(b.Edges)
		p.DstRunLens()
		p.DstDegrees(b.Edges)
	}); allocs != 0 {
		t.Fatalf("warmed partitioner: %v allocs per batch, want 0", allocs)
	}
}

func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	batch := randomBatch(rng, 10000, 400000)
	var p Partitioner
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Partition(batch.Edges)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batch.Edges)), "ns/edge")
}

package abr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/reorder"
	"streamgraph/internal/stats"
)

func histOf(degrees map[int]int) *stats.Histogram {
	h := stats.NewHistogram()
	for d, c := range degrees {
		h.AddN(d, c)
	}
	return h
}

func TestCAD(t *testing.T) {
	// 100 vertices of degree 1, 2 vertices of degree 500.
	h := histOf(map[int]int{1: 100, 500: 2})
	if got := CAD(h, 256); got != 500 {
		t.Fatalf("CAD = %v, want 500", got)
	}
	// Nothing above λ: x = 0 → CAD defined as 0.
	if got := CAD(h, 1000); got != 0 {
		t.Fatalf("CAD above max degree = %v, want 0", got)
	}
	// Mixed top degrees average.
	h2 := histOf(map[int]int{1: 10, 300: 1, 500: 1})
	if got := CAD(h2, 256); got != 400 {
		t.Fatalf("CAD = %v, want 400", got)
	}
}

// TestCADIdentity checks the paper's formulation: (b - y) / x equals
// the average degree of vertices above λ, where b is the batch size
// and y the edges from vertices with degree in [1, λ].
func TestCADIdentity(t *testing.T) {
	f := func(raw []uint16) bool {
		h := stats.NewHistogram()
		b := 0
		for _, r := range raw {
			d := int(r)%600 + 1
			h.Add(d)
			b += d
		}
		if b == 0 {
			return true
		}
		const lambda = 256
		y := 0
		x := 0
		for _, k := range h.Keys() {
			if k <= lambda {
				y += k * h.Count(k)
			} else {
				x += h.Count(k)
			}
		}
		want := 0.0
		if x > 0 {
			want = float64(b-y) / float64(x)
		}
		return math.Abs(CAD(h, lambda)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControllerCadence(t *testing.T) {
	c := NewController(Params{N: 3, Lambda: 256, TH: 465})
	if !c.Reordering() {
		t.Fatal("controller must default to reordering")
	}
	// Batches 0, 3, 6 are active with N=3.
	wantActive := []bool{true, false, false, true, false, false, true}
	for i, want := range wantActive {
		active, _ := c.NextBatch()
		if active != want {
			t.Fatalf("batch %d: active = %v, want %v", i, active, want)
		}
	}
}

func TestControllerDecision(t *testing.T) {
	c := NewController(DefaultParams)
	_, ro := c.NextBatch()
	if !ro {
		t.Fatal("first batch should reorder by default")
	}
	c.Report(100) // low CAD → stop reordering
	if _, ro := c.NextBatch(); ro {
		t.Fatal("should have turned reordering off")
	}
	c.Report(1000) // high CAD → reorder again
	if _, ro := c.NextBatch(); !ro {
		t.Fatal("should have turned reordering on")
	}
	c.Report(465) // exactly TH → reorder (>= comparison)
	if !c.Reordering() {
		t.Fatal("CAD == TH must reorder")
	}
}

func TestControllerNFloor(t *testing.T) {
	c := NewController(Params{N: 0, Lambda: 1, TH: 1})
	for i := 0; i < 5; i++ {
		if active, _ := c.NextBatch(); !active {
			t.Fatal("N<1 must clamp to every-batch instrumentation")
		}
	}
}

// TestCollectorsAgree: the reordered-path and concurrent-map
// collectors measure the same CAD as the histogram definition.
func TestCollectorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := &graph.Batch{}
	// Skewed batch: hub 7 gets 400 edges, the rest are scattered.
	for i := 0; i < 400; i++ {
		b.Edges = append(b.Edges, graph.Edge{Src: graph.VertexID(rng.Intn(1000)), Dst: 7, Weight: 1})
	}
	for i := 0; i < 3000; i++ {
		b.Edges = append(b.Edges, graph.Edge{
			Src: graph.VertexID(rng.Intn(1000)), Dst: graph.VertexID(rng.Intn(1000) + 8), Weight: 1,
		})
	}
	const lambda = 256
	want := CAD(b.InDegreeHist(), lambda)
	if want == 0 {
		t.Fatal("test batch should have a top vertex above λ")
	}
	var p reorder.Partitioner
	p.Partition(b.Edges)
	if got := CADFromRuns(p.DstRunLens(), lambda); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CADFromRuns over the reordered runs = %v, want %v", got, want)
	}
	if got := CollectConcurrent(b, lambda, 4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CollectConcurrent = %v, want %v", got, want)
	}
	prof := MeasureSorted(p.ByDst, lambda)
	if math.Abs(prof.CAD-want) > 1e-9 || prof.Runs != len(p.RunsDst) || prof.MaxRun != 400 {
		t.Fatalf("MeasureSorted = %+v, want CAD %v, %d runs, longest 400", prof, want, len(p.RunsDst))
	}
}

func TestCollectConcurrentEmptyAndSerial(t *testing.T) {
	b := &graph.Batch{}
	if got := CollectConcurrent(b, 256, 0); got != 0 {
		t.Fatalf("empty batch CAD = %v", got)
	}
}

// TestDecisionAccuracyOnSuite: with the paper's parameters, ABR's
// per-batch decisions match the Fig. 3 ground truth on the synthetic
// suite with high accuracy (the paper reports 97%).
func TestDecisionAccuracyOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	sizes := []int{1000, 10000, 100000}
	correct, total := 0, 0
	for _, p := range gen.AllProfiles() {
		p.WarmupEdges = 0
		s := gen.NewStream(p)
		for _, size := range sizes {
			b := s.NextBatch(size)
			got := Decide(b.InDegreeHist(), DefaultParams)
			want := gen.ReorderFriendly(p.Short, size)
			if got == want {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("decision accuracy %.2f below 0.95 (%d/%d)", acc, correct, total)
	}
}

// TestMeanDegreeObscures reproduces the paper's argument for rejecting
// the plain average degree: it cannot separate lj-like from wiki-like
// batches nearly as crisply as CAD does.
func TestMeanDegreeObscures(t *testing.T) {
	lj, _ := gen.ProfileByName("lj")
	wiki, _ := gen.ProfileByName("wiki")
	wiki.WarmupEdges = 0
	bl := gen.NewStream(lj).NextBatch(100000)
	bw := gen.NewStream(wiki).NextBatch(100000)

	meanRatio := MeanDegree(bw.InDegreeHist()) / MeanDegree(bl.InDegreeHist())
	cadW := CAD(bw.InDegreeHist(), 256)
	cadL := CAD(bl.InDegreeHist(), 256)
	if cadL != 0 {
		t.Fatalf("lj should have no vertex above λ, CAD = %v", cadL)
	}
	if cadW < 465 {
		t.Fatalf("wiki CAD %v below TH", cadW)
	}
	// Mean degree differs by a small constant factor; CAD separates
	// the classes categorically (0 vs >465).
	if meanRatio > 20 {
		t.Fatalf("mean degree unexpectedly separates classes (ratio %v); ablation premise broken", meanRatio)
	}
}

func TestMaxDegree(t *testing.T) {
	h := histOf(map[int]int{1: 5, 17: 2})
	if MaxDegree(h) != 17 {
		t.Fatalf("MaxDegree = %v", MaxDegree(h))
	}
	if MeanDegree(stats.NewHistogram()) != 0 {
		t.Fatal("empty MeanDegree should be 0")
	}
}

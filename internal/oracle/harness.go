package oracle

import (
	"fmt"
	"math"

	"streamgraph/internal/compute"
	"streamgraph/internal/graph"
)

// Options tunes one differential run.
type Options struct {
	// Context is a replay line (typically an AdvSpec literal or a
	// fuzz-input description) attached to every divergence so the
	// failing stream can be regenerated exactly.
	Context string
	// Computes holds factories for the analytics whose results must
	// agree across targets; each target gets its own instance of
	// each. Engines should run single-worker so results are
	// scheduling-independent, except incremental PageRank, which is
	// held within its error bound of a converged reference instead.
	// Nil disables compute checking.
	Computes []func() compute.Engine
	// Tolerance bounds the allowed per-vertex compute difference:
	// |a-b| <= Tolerance * max(1, |a|, |b|). Zero means 1e-9, tight
	// enough that any structural divergence (a dropped or duplicated
	// edge) is far outside it while cross-store float summation-order
	// noise stays inside. Exact-valued analytics (BFS hops, CC
	// labels, shortest-path distances) are unaffected either way.
	Tolerance float64
	// CheckEvery verifies stores every k batches (and always after
	// the last). 0 means every batch.
	CheckEvery int
	// SkipMirror disables the in/out mirror invariant check that
	// otherwise runs on the final state of every target.
	SkipMirror bool
}

func (o Options) tolerance() float64 {
	if o.Tolerance > 0 {
		return o.Tolerance
	}
	return 1e-9
}

func (o Options) every() int {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return 1
}

// RunStream replays the batch stream through every target, checking
// each against the sequential reference model after each batch (or
// every CheckEvery batches): full-graph equivalence, latest_bid
// equivalence where the target maintains it, and — when Computes is
// set — equivalence of every analytic's result vector across all
// targets. Returns nil, or the first *Divergence with the replay
// context attached.
//
// Targets must be fresh (empty stores) and pre-sized so the stream
// never grows the vertex space; Matrix handles both.
func RunStream(batches []*graph.Batch, targets []*Target, opts Options) error {
	model := NewModel()
	engines := make([][]compute.Engine, len(targets))
	for i := range targets {
		engines[i] = make([]compute.Engine, len(opts.Computes))
		for j, mk := range opts.Computes {
			engines[i][j] = mk()
		}
	}

	fail := func(d *Divergence, target string, batch int) error {
		d.Target = target
		d.Batch = batch
		d.Context = opts.Context
		return d
	}

	for bi, b := range batches {
		model.ApplyBatch(b)
		for _, t := range targets {
			t.Apply(b)
		}
		check := (bi+1)%opts.every() == 0 || bi == len(batches)-1
		if check {
			for _, t := range targets {
				if d := model.Verify(t.Store()); d != nil {
					return fail(d, t.Name, b.ID)
				}
				if t.Adj != nil {
					if d := model.VerifyLatestBIDs(t.Adj()); d != nil {
						return fail(d, t.Name, b.ID)
					}
				} else if t.Bids != nil {
					if d := model.VerifyLatestBIDsOf(t.Bids()); d != nil {
						return fail(d, t.Name, b.ID)
					}
				}
			}
		}
		// Compute equivalence: run each analytic on each target's
		// store and compare result vectors against target 0. An engine
		// with a stated error bound (incremental PageRank) is instead
		// held within that bound of a converged static PageRank of the
		// graph, computed once per batch on target 0's store.
		ref := make([][]float64, len(opts.Computes))
		var converged []float64
		for i, t := range targets {
			for j, eng := range engines[i] {
				eng.Update(t.Store(), b)
				vec, ok := compute.ResultVector(eng)
				if !ok {
					return fail(diverge("compute engine %q has no result vector", eng.Name()), t.Name, b.ID)
				}
				if pr, ok := eng.(*compute.PageRank); ok && pr.Incremental {
					if converged == nil {
						converged = StaticRanks(targets[0].Store(), pr.Damping, pr.Weighted)
					}
					if d := compareBounded(eng.Name(), t.Store(), converged, vec, pr.ErrorBound()+float32Slack); d != nil {
						return fail(d, t.Name, b.ID)
					}
					continue
				}
				if i == 0 {
					ref[j] = vec
					continue
				}
				if d := compareVectors(eng.Name(), ref[j], vec, opts.tolerance()); d != nil {
					d.Detail = fmt.Sprintf("%s (reference target %q)", d.Detail, targets[0].Name)
					return fail(d, t.Name, b.ID)
				}
			}
		}
	}

	for _, t := range targets {
		if t.Finish != nil {
			t.Finish()
		}
		if d := model.Verify(t.Store()); d != nil {
			return fail(d, t.Name, len(batches)-1)
		}
		if !opts.SkipMirror {
			if err := graph.CheckMirror(t.Store()); err != nil {
				return fail(diverge("mirror invariant: %v", err), t.Name, len(batches)-1)
			}
		}
	}
	return nil
}

// compareVectors checks two per-vertex result vectors entry-wise.
func compareVectors(engine string, want, got []float64, tol float64) *Divergence {
	if len(want) != len(got) {
		return diverge("compute %q: result length %d, reference %d", engine, len(got), len(want))
	}
	for v := range want {
		a, b := want[v], got[v]
		if a == b { // covers +Inf == +Inf and exact integers
			continue
		}
		if math.IsNaN(a) && math.IsNaN(b) {
			continue
		}
		limit := tol * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		if math.Abs(a-b) > limit {
			return diverge("compute %q: vertex %d result %v, reference %v (|Δ|=%g > %g)",
				engine, v, b, a, math.Abs(a-b), limit)
		}
	}
	return nil
}

// float32Slack covers the rounding of an engine's float32 state on top
// of its stated error bound.
const float32Slack = 1e-5

// compareBounded checks got's L1 distance from want against eps times
// the summed result of the vertices of s with out-edges: the quantity
// compute.PageRank.ErrorBound is stated against.
func compareBounded(engine string, s graph.Store, want, got []float64, eps float64) *Divergence {
	if len(want) != len(got) {
		return diverge("compute %q: result length %d, reference %d", engine, len(got), len(want))
	}
	diff, total := 0.0, 0.0
	for v := range want {
		diff += math.Abs(got[v] - want[v])
		if s.OutDegree(graph.VertexID(v)) > 0 {
			total += math.Abs(want[v])
		}
	}
	if diff > eps*total {
		return diverge("compute %q: L1 distance %g from the converged result exceeds its bound %g of the sources' summed result",
			engine, diff/total, eps)
	}
	return nil
}

// StaticRanks is a sequential float64 Jacobi PageRank over s — the
// formulation compute.PageRank uses, weighted or not — iterated until
// no rank moves by 1e-10 of itself (at most 500 sweeps). Damping 0
// means 0.85.
func StaticRanks(s graph.Store, damping float64, weighted bool) []float64 {
	if damping <= 0 {
		damping = 0.85
	}
	n := s.NumVertices()
	// Flatten the in-lists once: the sweeps then run over arrays.
	start := make([]int, n+1)
	var src []graph.VertexID
	var weight []float64
	outW := make([]float64, n)
	for v := 0; v < n; v++ {
		s.ForEachIn(graph.VertexID(v), func(nb graph.Neighbor) {
			w := 1.0
			if weighted {
				w = float64(nb.Weight)
			}
			src = append(src, nb.ID)
			weight = append(weight, w)
			outW[nb.ID] += w
		})
		start[v+1] = len(src)
	}
	base := (1 - damping) / float64(n)
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = base
	}
	next := make([]float64, n)
	for it := 0; it < 500; it++ {
		moved := 0.0
		for v := range next {
			sum := 0.0
			for k := start[v]; k < start[v+1]; k++ {
				sum += ranks[src[k]] * weight[k] / outW[src[k]]
			}
			next[v] = base + damping*sum
			moved = math.Max(moved, math.Abs(next[v]-ranks[v])/next[v])
		}
		ranks, next = next, ranks
		if moved < 1e-10 {
			break
		}
	}
	return ranks
}

// DefaultComputes returns the analytics used by the standard
// differential runs: incremental BFS and CC (exact integer results),
// delta-stepping SSSP (exact distances) and a fixed-iteration static
// PageRank (float results, summation-order noise only), all
// single-worker so they agree across targets exactly; plus incremental
// PageRank exactly as streamgraph's facade builds it (default
// tolerance, GOMAXPROCS workers), held within its error bound of a
// converged static PageRank after every batch.
func DefaultComputes(source graph.VertexID) []func() compute.Engine {
	return []func() compute.Engine{
		func() compute.Engine { return &compute.BFS{Incremental: true, Workers: 1, Source: source} },
		func() compute.Engine { return &compute.CC{Incremental: true, Workers: 1} },
		func() compute.Engine { return &compute.DeltaStepping{Workers: 1, Source: source} },
		func() compute.Engine { return &compute.PageRank{Workers: 1, MaxIter: 8, Tol: 1e-300} },
		func() compute.Engine { return &compute.PageRank{Incremental: true} },
	}
}

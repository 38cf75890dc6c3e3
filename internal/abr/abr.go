// Package abr implements Adaptive Batch Reordering (Section 4.2): an
// online controller that decides, from a low-overhead measurement of
// the incoming batch's degree distribution, whether batch reordering
// will pay off.
//
// The measurement is the paper's order-λ clusterable average degree:
//
//	CAD_λ = (b - y) / x
//
// where b is the batch size, y the number of edges from vertices with
// intra-batch degree in [1, λ], and x the number of unique vertices
// with degree > λ. CAD_λ is the average degree of the batch's
// top-degree vertices; when it reaches the threshold TH the batch is
// high-degree and reordering-friendly.
//
// The controller instruments only every n-th batch (ABR-active) and
// reuses the decision for the following n-1 batches (ABR-inert),
// exploiting the temporal stability of batch degree distributions.
// Either way the degrees are destination run lengths: a reordered
// batch's are read off the engine's destination view (MeasureSorted,
// nearly free, and what the default policy does on every batch), a
// non-reordered batch is sorted by destination first (the paper
// populates an Intel TBB concurrent map instead).
package abr

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/reorder"
	"streamgraph/internal/stats"
)

// Params are ABR's design parameters. N sets the instrumentation
// frequency, Lambda locates an individual batch's top degrees, and TH
// separates high-CAD from low-CAD batches.
type Params struct {
	N      int
	Lambda int
	TH     float64
}

// DefaultParams are the paper's chosen values (Section 6.2.3): n=10,
// λ=256, TH=465, found to give 97% decision accuracy.
var DefaultParams = Params{N: 10, Lambda: 256, TH: 465}

// Controller is the ABR state machine. The zero value is not useful;
// use NewController. Controllers are not safe for concurrent use (one
// controller serves one sequential batch stream).
type Controller struct {
	params    Params
	reorder   bool
	batchSeen int
	obs       *obs.Observer
}

// NewController returns a controller with reordering initially
// enabled, matching the paper's pseudocode default.
func NewController(p Params) *Controller {
	if p.N < 1 {
		p.N = 1
	}
	return &Controller{params: p, reorder: true}
}

// Params returns the controller's parameters.
func (c *Controller) Params() Params { return c.params }

// SetObserver attaches observability instrumentation: each Report
// records the measured CAD_λ and whether the decision flipped the
// current mode. A nil observer (the default) disables it.
func (c *Controller) SetObserver(o *obs.Observer) { c.obs = o }

// NextBatch advances to the next input batch and returns whether this
// batch is ABR-active (must be instrumented) and whether it should be
// reordered. The first batch is active.
func (c *Controller) NextBatch() (active, reorderBatch bool) {
	active = c.batchSeen%c.params.N == 0
	c.batchSeen++
	return active, c.reorder
}

// Report feeds the CAD_λ measured on an ABR-active batch back into
// the controller, fixing the decision for the next n batches.
func (c *Controller) Report(cad float64) {
	next := cad >= c.params.TH
	c.obs.ObserveCAD(cad, next != c.reorder)
	c.reorder = next
}

// Reordering returns the current decision without advancing.
func (c *Controller) Reordering() bool { return c.reorder }

// Audit returns the structured decision-audit record for one batch:
// what CAD_λ was observed (0 on inert batches, which reuse the
// standing decision), the threshold it was compared against, and the
// engine mode chosen. The pipeline fills in the realized cost and
// regret fields after the update runs.
func (c *Controller) Audit(batchID int, sampled bool, cad float64, reordered bool) obs.DecisionAudit {
	choice := "baseline"
	if reordered {
		choice = "reorder"
	}
	return obs.DecisionAudit{
		Controller: "abr",
		BatchID:    batchID,
		Input:      "cad_lambda",
		Observed:   cad,
		Threshold:  c.params.TH,
		Sampled:    sampled,
		Choice:     choice,
	}
}

// CAD computes CAD_λ from a batch in-degree histogram. It returns 0
// when the batch has no vertex above λ (x = 0), which the threshold
// comparison treats as reordering-adverse.
func CAD(h *stats.Histogram, lambda int) float64 {
	edges := 0 // b - y: edges from vertices with degree > λ
	x := 0
	for _, k := range h.Keys() {
		if k > lambda {
			edges += k * h.Count(k)
			x += h.Count(k)
		}
	}
	if x == 0 {
		return 0
	}
	return float64(edges) / float64(x)
}

// Decide applies the threshold rule to a histogram.
func Decide(h *stats.Histogram, p Params) bool {
	return CAD(h, p.Lambda) >= p.TH
}

// CADFromRuns measures CAD_λ from destination-run lengths recorded by
// a reordered update engine (update.Stats.DstRunLens): each run length
// is a vertex's intra-batch in-degree. This is the reordered-path
// instrumentation, overlapped with the update itself.
func CADFromRuns(lens []int, lambda int) float64 {
	edges, x := 0, 0
	for _, l := range lens {
		if l > lambda {
			edges += l
			x++
		}
	}
	if x == 0 {
		return 0
	}
	return float64(edges) / float64(x)
}

// Profile is what one walk over a batch sorted by destination yields:
// CAD_λ and the shape of its destination runs.
type Profile struct {
	CAD float64
	// Runs is the number of destination runs (distinct destinations);
	// MaxRun the longest, the hottest destination's intra-batch
	// in-degree.
	Runs, MaxRun int
}

// MeasureSorted profiles a batch that a reordered engine has already
// sorted by destination (update.Reordered.DstView): the run lengths
// are read off the view, so measuring every batch costs one walk and
// keeps no lengths.
func MeasureSorted(byDst []graph.Edge, lambda int) Profile {
	var p Profile
	edges, x := 0, 0 // b - y and x of CAD_λ
	for lo, i := 0, 1; i <= len(byDst); i++ {
		if i < len(byDst) && byDst[i].Dst == byDst[lo].Dst {
			continue
		}
		l := i - lo // a run ends at i
		p.Runs++
		p.MaxRun = max(p.MaxRun, l)
		if l > lambda {
			edges += l
			x++
		}
		lo = i
	}
	if x > 0 {
		p.CAD = float64(edges) / float64(x)
	}
	return p
}

// CollectConcurrent measures CAD_λ on a non-reordered batch by sorting
// it by destination on a scratch partitioner allocated per call, so a
// workload that never reorders keeps nothing for it. The name and the
// unused workers argument are the paper's, whose concurrent hash map
// this replaces.
func CollectConcurrent(b *graph.Batch, lambda, workers int) float64 {
	var p reorder.Partitioner
	return MeasureSorted(p.Sort(nil, b.Edges, false), lambda).CAD
}

// MeanDegree is the D1-ablation alternative metric the paper rejects:
// the plain average intra-batch degree. Most batch vertices have tiny
// degrees, so the mean obscures the high/low-degree distinction.
func MeanDegree(h *stats.Histogram) float64 {
	edges, verts := 0, 0
	for _, k := range h.Keys() {
		edges += k * h.Count(k)
		verts += h.Count(k)
	}
	if verts == 0 {
		return 0
	}
	return float64(edges) / float64(verts)
}

// MaxDegree is the second ablation metric: the batch's maximum
// intra-batch degree (the Fig. 3 right-axis indicator).
func MaxDegree(h *stats.Histogram) float64 {
	return float64(h.MaxKey())
}

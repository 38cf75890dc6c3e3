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
// Instrumentation runs on whichever update path is current: the
// reordered path reads degrees from the already-clustered vertex runs
// (nearly free), the non-reordered path sorts the batch's destination
// keys with the reordering partitioner and reads the same run lengths
// (the paper populates an Intel TBB concurrent map instead).
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

// CollectConcurrent measures CAD_λ on a non-reordered batch. The paper
// populates a concurrent hash map alongside the edge updates (0.54x on
// these batches); here the reordering partitioner sorts the
// destination keys alone and the run lengths of that order are the
// per-destination degrees. The scratch is allocated per call: ABR
// measures one batch in N, and a workload that never reorders should
// keep nothing for it. The name and the unused workers argument are
// the paper's; nothing here is concurrent any more.
func CollectConcurrent(b *graph.Batch, lambda, workers int) float64 {
	var p reorder.Partitioner
	return CADFromRuns(p.DstDegrees(b.Edges), lambda)
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

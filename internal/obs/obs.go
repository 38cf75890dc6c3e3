package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity is the trace ring size when Options leaves it
// zero: enough to cover several OCA aggregation windows of history
// without holding more than a few hundred KB.
const DefaultTraceCapacity = 256

// Options configures an Observer.
type Options struct {
	// TraceCapacity is the batch-trace ring size (0 means
	// DefaultTraceCapacity); negative disables tracing entirely.
	TraceCapacity int
	// SpanCapacity is the span flight-recorder ring size (0 means
	// DefaultSpanCapacity); negative disables span recording (spans
	// still time their batch trace, but no events are retained).
	SpanCapacity int
}

// Observer bundles the standard streamgraph instrumentation: one
// registry pre-populated with the pipeline's metric set, and the
// per-batch trace ring. A nil *Observer disables everything; all
// methods are nil-receiver safe. One Observer serves one pipeline
// (counters are not namespaced per run).
type Observer struct {
	Registry *Registry
	Traces   *Ring
	// Spans is the span flight recorder (see span.go); nil when span
	// recording is disabled.
	Spans *SpanRing

	// Pipeline-level counters.
	BatchesTotal   *Counter
	ReorderedTotal *Counter
	HAUTotal       *Counter

	// Flight-recorder accounting: traces and spans evicted from the
	// bounded rings (two label values of one series), plus span API
	// contract violations detected at runtime (End called twice on a
	// span that has not been reused yet).
	TraceDroppedDecisions *Counter
	TraceDroppedSpans     *Counter
	SpanMisuseTotal       *Counter

	// Input-knowledge telemetry: the per-batch statistics the paper's
	// controllers key on, promoted to first-class series.
	DeleteRatioHist *Histogram
	DeleteRatioLast *Gauge
	DegreeSkewHist  *Histogram
	DegreeSkewLast  *Gauge
	RunLenHist      *Histogram

	// Realized-vs-best regret (ABR): batches where the per-edge cost
	// model says the engine mode not chosen would have been cheaper,
	// and the accumulated excess cost in nanoseconds.
	ABRMispredictTotal *Counter
	ABRRegretNs        *Counter

	// Adaptive-store migration instrumentation (fed by
	// internal/graph's AdaptiveStore): completed representation
	// switches, incremental copy steps, and accumulated copy time.
	StoreMigrationsTotal     *Counter
	StoreMigrationStepsTotal *Counter
	StoreMigrateNs           *Counter

	// Robustness instrumentation: recovered per-batch panics and
	// load-shed ladder activity (fed by internal/pipeline).
	PanicsTotal            *Counter
	ShedTransitionsTotal   *Counter
	ShedSkipComputeTotal   *Counter
	ShedForceBaselineTotal *Counter

	// ABR decision instrumentation (fed by internal/abr).
	ABRActiveTotal *Counter
	ABRFlipsTotal  *Counter
	CADHist        *Histogram
	CADLast        *Gauge

	// OCA decision instrumentation (fed by internal/oca).
	ComputeRoundsTotal    *Counter
	AggregatedRoundsTotal *Counter
	DeferredRoundsTotal   *Counter
	LocalityHist          *Histogram
	LocalityLast          *Gauge

	// Update-engine instrumentation (fed by internal/update).
	EdgesAppliedTotal *Counter
	LocksTotal        *Counter
	ComparisonsTotal  *Counter
	HashOpsTotal      *Counter
	LocksPerBatch     *Histogram
	SearchPerBatch    *Histogram

	// Stage latency and batch shape (fed by internal/pipeline).
	UpdateSeconds  *Histogram
	ComputeSeconds *Histogram
	BatchEdges     *Histogram

	// engineSeconds holds one apply-latency histogram per update
	// engine, keyed by Engine.Name(). The three software engines are
	// pre-registered; unknown names are added under the mutex. The
	// baselineSec/roSec/roUSCSec fields cache the pre-registered
	// handles so the per-apply path skips the lock + map lookup.
	engineMu      sync.Mutex
	engineSeconds map[string]*Histogram
	baselineSec   *Histogram
	roSec         *Histogram
	roUSCSec      *Histogram

	// sink, when set, receives every completed span as one JSON line
	// (SetSpanSink); sinkEnc is the encoder bound to it.
	sinkMu  sync.Mutex
	sink    io.Writer
	sinkEnc *json.Encoder
}

// New builds an Observer with the full streamgraph metric set
// registered.
func New(o Options) *Observer {
	reg := NewRegistry()
	obs := &Observer{Registry: reg}
	obs.TraceDroppedDecisions = reg.NewCounter(`streamgraph_trace_dropped_total{ring="decisions"}`,
		"Decision traces evicted from the bounded trace ring before being read.")
	obs.TraceDroppedSpans = reg.NewCounter(`streamgraph_trace_dropped_total{ring="spans"}`,
		"Span events evicted from the bounded flight-recorder ring before being read.")
	obs.SpanMisuseTotal = reg.NewCounter("streamgraph_span_misuse_total",
		"Span contract violations detected at runtime (End called twice).")
	switch {
	case o.TraceCapacity == 0:
		obs.Traces = NewRing(DefaultTraceCapacity)
	case o.TraceCapacity > 0:
		obs.Traces = NewRing(o.TraceCapacity)
	}
	obs.Traces.SetDropCounter(obs.TraceDroppedDecisions)
	switch {
	case o.SpanCapacity == 0:
		obs.Spans = NewSpanRing(DefaultSpanCapacity, obs.TraceDroppedSpans)
	case o.SpanCapacity > 0:
		obs.Spans = NewSpanRing(o.SpanCapacity, obs.TraceDroppedSpans)
	}

	obs.BatchesTotal = reg.NewCounter("streamgraph_pipeline_batches_total",
		"Batches processed by the pipeline.")
	obs.ReorderedTotal = reg.NewCounter("streamgraph_pipeline_reordered_batches_total",
		"Batches executed in the reordered (RO / RO+USC) mode.")
	obs.HAUTotal = reg.NewCounter("streamgraph_pipeline_hau_batches_total",
		"Batches executed on the (simulated) hardware update engine.")

	obs.StoreMigrationsTotal = reg.NewCounter("streamgraph_store_migrations_total",
		"Completed live store representation migrations.")
	obs.StoreMigrationStepsTotal = reg.NewCounter("streamgraph_store_migration_steps_total",
		"Incremental migration copy steps executed.")
	obs.StoreMigrateNs = reg.NewCounter("streamgraph_store_migrate_ns_total",
		"Accumulated migration copy time in nanoseconds.")

	obs.PanicsTotal = reg.NewCounter("streamgraph_pipeline_panics_total",
		"Per-batch panics recovered by the pipeline's isolation boundary.")
	obs.ShedTransitionsTotal = reg.NewCounter("streamgraph_shed_transitions_total",
		"Load-shed ladder level changes (any direction).")
	obs.ShedSkipComputeTotal = reg.NewCounter("streamgraph_shed_skip_compute_total",
		"Batches processed at the skip-compute shed level or above.")
	obs.ShedForceBaselineTotal = reg.NewCounter("streamgraph_shed_force_baseline_total",
		"Batches processed at the force-baseline shed level.")

	obs.ABRActiveTotal = reg.NewCounter("streamgraph_abr_active_batches_total",
		"Instrumented batches: ABR-active ones under the adaptive policy, every reordered one otherwise.")
	obs.ABRFlipsTotal = reg.NewCounter("streamgraph_abr_decision_flips_total",
		"ABR reorder decisions that changed the current mode.")
	obs.CADHist = reg.NewHistogram("streamgraph_abr_cad",
		"CAD_lambda values measured on instrumented batches.",
		ExpBuckets(1, 4, 12))
	obs.CADLast = reg.NewGauge("streamgraph_abr_cad_last",
		"Most recent CAD_lambda measurement.")

	obs.ComputeRoundsTotal = reg.NewCounter("streamgraph_oca_compute_rounds_total",
		"Computation rounds scheduled.")
	obs.AggregatedRoundsTotal = reg.NewCounter("streamgraph_oca_aggregated_rounds_total",
		"Rounds that covered more than one batch.")
	obs.DeferredRoundsTotal = reg.NewCounter("streamgraph_oca_deferred_rounds_total",
		"Batches whose round OCA deferred for aggregation.")
	obs.LocalityHist = reg.NewHistogram("streamgraph_oca_locality",
		"Inter-batch locality measurements.",
		[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1})
	obs.LocalityLast = reg.NewGauge("streamgraph_oca_locality_last",
		"Most recent inter-batch locality measurement.")

	obs.EdgesAppliedTotal = reg.NewCounter("streamgraph_update_edges_applied_total",
		"Edge operations ingested by the update engines.")
	obs.LocksTotal = reg.NewCounter("streamgraph_update_locks_total",
		"Per-vertex lock acquisitions (baseline engine).")
	obs.ComparisonsTotal = reg.NewCounter("streamgraph_update_search_comparisons_total",
		"Adjacency entries examined by duplicate-check searches.")
	obs.HashOpsTotal = reg.NewCounter("streamgraph_update_hash_ops_total",
		"USC hash-table operations.")
	obs.LocksPerBatch = reg.NewHistogram("streamgraph_update_locks_per_batch",
		"Lock acquisitions per batch (lock-wait pressure).",
		ExpBuckets(1, 8, 10))
	obs.SearchPerBatch = reg.NewHistogram("streamgraph_update_search_comparisons_per_batch",
		"Duplicate-search comparisons per batch.",
		ExpBuckets(1, 8, 12))

	obs.UpdateSeconds = reg.NewHistogram("streamgraph_update_seconds",
		"Batch update-phase latency in seconds (includes reordering and instrumentation).",
		DurationBuckets())
	obs.ComputeSeconds = reg.NewHistogram("streamgraph_compute_seconds",
		"Computation-round latency in seconds.",
		DurationBuckets())
	obs.BatchEdges = reg.NewHistogram("streamgraph_batch_edges",
		"Batch size in edge operations.",
		ExpBuckets(100, 5, 8))

	obs.DeleteRatioHist = reg.NewHistogram("streamgraph_input_delete_ratio",
		"Per-batch fraction of deletion operations.",
		[]float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1})
	obs.DeleteRatioLast = reg.NewGauge("streamgraph_input_delete_ratio_last",
		"Most recent per-batch delete ratio.")
	obs.DegreeSkewHist = reg.NewHistogram("streamgraph_input_degree_skew",
		"Per-batch degree skew: share of the batch's edges aimed at its hottest destination vertex.",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1})
	obs.DegreeSkewLast = reg.NewGauge("streamgraph_input_degree_skew_last",
		"Most recent per-batch degree skew.")
	obs.RunLenHist = reg.NewHistogram("streamgraph_input_run_length",
		"Per-vertex destination run lengths observed by the reordered path (mean per batch).",
		ExpBuckets(1, 4, 10))

	obs.ABRMispredictTotal = reg.NewCounter("streamgraph_abr_mispredict_total",
		"ABR decisions whose realized update cost exceeded the cost model's estimate for the mode not chosen.")
	obs.ABRRegretNs = reg.NewCounter("streamgraph_abr_regret_ns_total",
		"Accumulated realized-minus-estimated-best update cost in nanoseconds across mispredicted batches.")

	obs.engineSeconds = make(map[string]*Histogram, 4)
	for _, name := range []string{"baseline", "ro", "ro+usc"} {
		obs.engineSeconds[name] = reg.NewHistogram(
			fmt.Sprintf("streamgraph_update_engine_seconds{engine=%q}", name),
			"Per-engine update apply latency in seconds.",
			DurationBuckets())
	}
	obs.baselineSec = obs.engineSeconds["baseline"]
	obs.roSec = obs.engineSeconds["ro"]
	obs.roUSCSec = obs.engineSeconds["ro+usc"]
	return obs
}

// StartBatch opens a trace for batch id (nil when the observer is
// nil; the nil trace's methods are no-ops). The trace doubles as the
// carrier for per-batch metrics, so it is produced even when the ring
// is disabled — EmitBatch then updates the registry and discards it.
// traceID joins the batch's spans to request-level spans the server
// recorded before the batch existed; 0 allocates a fresh trace ID.
// The trace carries an open root span ("batch"), closed by EmitBatch
// or ObservePanic.
func (o *Observer) StartBatch(id, edges int, policy string, traceID uint64) *BatchTrace {
	if o == nil {
		return nil
	}
	if traceID == 0 {
		traceID = traceSeq.Add(1)
	}
	tr := &BatchTrace{
		TraceID: traceID,
		BatchID: id,
		Start:   time.Now(),
		Policy:  policy,
		Edges:   edges,
		Spans:   make([]SpanEvent, 0, 8),
		obs:     o,
	}
	root := newSpan(o, tr, traceID, 0, id, "batch")
	root.root = true
	tr.root = root
	return tr
}

// EngineHistogram returns the apply-latency histogram for an engine
// name, registering one on first use for engines beyond the built-in
// three. Nil-safe (returns nil, whose Observe is a no-op).
func (o *Observer) EngineHistogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.engineMu.Lock()
	defer o.engineMu.Unlock()
	h, ok := o.engineSeconds[name]
	if !ok {
		h = o.Registry.NewHistogram(
			fmt.Sprintf("streamgraph_update_engine_seconds{engine=%q}", name),
			"Per-engine update apply latency in seconds.",
			DurationBuckets())
		o.engineSeconds[name] = h
	}
	return h
}

// engineFast returns the cached histogram handle for the three
// built-in engines, nil otherwise. Keeps the per-apply path free of
// the engineMu lock and map lookup.
func (o *Observer) engineFast(engine string) *Histogram {
	switch engine {
	case "baseline":
		return o.baselineSec
	case "ro":
		return o.roSec
	case "ro+usc":
		return o.roUSCSec
	}
	return nil
}

// ObserveEngineApply records one engine Apply call: latency plus the
// engine's synchronization and search work counters. Called by the
// update engines themselves (internal/update). Nil-safe.
func (o *Observer) ObserveEngineApply(engine string, seconds float64, edges, locks, comparisons, hashOps int64) {
	if o == nil {
		return
	}
	h := o.engineFast(engine)
	if h == nil {
		h = o.EngineHistogram(engine)
	}
	h.Observe(seconds)
	o.EdgesAppliedTotal.Add(edges)
	o.LocksTotal.Add(locks)
	o.ComparisonsTotal.Add(comparisons)
	o.HashOpsTotal.Add(hashOps)
	o.LocksPerBatch.Observe(float64(locks))
	o.SearchPerBatch.Observe(float64(comparisons))
}

// ObserveCAD records one CAD_λ measurement and whether the resulting
// decision flipped the current mode. Called by internal/abr, and by the
// pipeline for batches it instruments outside ABR (never a flip).
func (o *Observer) ObserveCAD(cad float64, flipped bool) {
	if o == nil {
		return
	}
	o.CADHist.Observe(cad)
	o.CADLast.Set(cad)
	if flipped {
		o.ABRFlipsTotal.Inc()
	}
}

// ObserveLocality records one inter-batch locality measurement.
// Called by internal/oca.
func (o *Observer) ObserveLocality(l float64) {
	if o == nil {
		return
	}
	o.LocalityHist.Observe(l)
	o.LocalityLast.Set(l)
}

// ObserveRound records one OCA scheduling decision: batches > 0 means
// a round covering that many batches ran; deferred marks a batch whose
// round was pushed to aggregate with the next. Called by internal/oca.
func (o *Observer) ObserveRound(batches int, deferred bool) {
	if o == nil {
		return
	}
	if deferred {
		o.DeferredRoundsTotal.Inc()
		return
	}
	if batches > 0 {
		o.ComputeRoundsTotal.Inc()
		if batches > 1 {
			o.AggregatedRoundsTotal.Inc()
		}
	}
}

// ObservePanic records a batch whose processing panicked and was
// recovered at the pipeline's isolation boundary: the panic counter is
// incremented and the batch's trace — marked Panicked, root span
// closed with the panicked attribute — lands in the ring so /trace
// shows the failure next to the decisions around it. tr is the trace
// that was in flight when the panic fired (nil when the panic preceded
// StartBatch; a minimal trace is synthesized). The batch did NOT
// complete, so BatchesTotal is deliberately not incremented. Nil-safe.
func (o *Observer) ObservePanic(tr *BatchTrace, batchID, edges int, policy string, v any) {
	if o == nil {
		return
	}
	o.PanicsTotal.Inc()
	if tr == nil {
		tr = &BatchTrace{
			BatchID: batchID,
			Start:   time.Now(),
			Policy:  policy,
			Edges:   edges,
			obs:     o,
		}
	}
	tr.Panicked = true
	tr.PanicValue = fmt.Sprint(v)
	tr.endRoot()
	o.Traces.Add(*tr)
}

// EmitBatch finalizes a batch trace: pipeline-level counters and stage
// histograms are updated from the trace, and the trace lands in the
// ring. For concurrent-compute batches this runs on the compute
// goroutine after the round finishes, so the trace includes the real
// compute span. Nil-safe in both receiver and trace.
func (o *Observer) EmitBatch(t *BatchTrace) {
	if o == nil || t == nil {
		return
	}
	t.endRoot()
	o.BatchesTotal.Inc()
	if t.Reordered {
		o.ReorderedTotal.Inc()
	}
	if t.UsedHAU {
		o.HAUTotal.Inc()
	}
	if t.ABRActive {
		o.ABRActiveTotal.Inc()
	}
	o.BatchEdges.Observe(float64(t.Edges))
	if d := t.SpanDur("update"); d > 0 {
		o.UpdateSeconds.Observe(d.Seconds())
	}
	if d := t.SpanDur("compute"); d > 0 {
		o.ComputeSeconds.Observe(d.Seconds())
	}
	o.DeleteRatioHist.Observe(t.DeleteRatio)
	o.DeleteRatioLast.Set(t.DeleteRatio)
	if t.MaxRunLen > 0 {
		// Run-shape telemetry exists only on batches where the reordered
		// path collected destination runs.
		o.DegreeSkewHist.Observe(t.DegreeSkew)
		o.DegreeSkewLast.Set(t.DegreeSkew)
		o.RunLenHist.Observe(t.MeanRunLen)
	}
	o.Traces.Add(*t)
}

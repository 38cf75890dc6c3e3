// Package pipeline assembles the full streaming graph system: per
// input batch it runs the ABR decision, dispatches the update to the
// selected execution mode (software baseline, RO, RO+USC, or the
// simulated HAU), feeds OCA's locality measurement, and schedules
// (possibly aggregated) computation rounds.
//
// A Runner executes one policy over one batch stream. Software
// policies measure real wall-clock time on the host (like the paper's
// Xeon measurements of ABR/USC/OCA); Sim* policies measure update
// cycles on the internal/sim machine (like the paper's Sniper
// measurements of HAU), while the functional state change is applied
// with a software engine so compute still runs on real data.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"streamgraph/internal/abr"
	"streamgraph/internal/compute"
	"streamgraph/internal/fault"
	"streamgraph/internal/graph"
	"streamgraph/internal/hau"
	"streamgraph/internal/obs"
	"streamgraph/internal/oca"
	"streamgraph/internal/sim"
	"streamgraph/internal/update"
)

// Policy selects the update execution strategy.
type Policy int

const (
	// Baseline: edge-parallel locked updates, never reorder.
	Baseline Policy = iota
	// AlwaysRO: input-oblivious batch reordering on every batch.
	AlwaysRO
	// AlwaysROUSC: input-oblivious reordering plus USC on every batch.
	AlwaysROUSC
	// ABR: adaptive reordering (no USC).
	ABR
	// ABRUSC: adaptive reordering with USC on reordered batches.
	ABRUSC
	// PerfectABR: oracle reordering decisions at zero overhead.
	PerfectABR
	// SimBaseline: software baseline timed on the simulated machine.
	SimBaseline
	// SimRO: input-oblivious reordering timed on the simulated
	// machine.
	SimRO
	// SimROUSC: input-oblivious reordering plus USC timed on the
	// simulated machine.
	SimROUSC
	// SimABR: adaptive software reordering without USC (RO /
	// baseline) timed on the simulated machine.
	SimABR
	// SimABRUSC: adaptive software (RO+USC / baseline) timed on the
	// simulated machine — Table 3's normalization reference.
	SimABRUSC
	// SimABRUSCHAU: the paper's full input-aware SW/HW system —
	// reordering-friendly batches run RO+USC, reordering-adverse
	// batches run HAU, timed on the simulated machine.
	SimABRUSCHAU
	// SimHAU: HAU enforced on every batch (the HW-only strawman of
	// Fig. 15 right).
	SimHAU
)

// String returns the policy's report name.
func (p Policy) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case AlwaysRO:
		return "ro"
	case AlwaysROUSC:
		return "ro+usc"
	case ABR:
		return "abr"
	case ABRUSC:
		return "abr+usc"
	case PerfectABR:
		return "perfect-abr"
	case SimBaseline:
		return "sim-baseline"
	case SimRO:
		return "sim-ro"
	case SimROUSC:
		return "sim-ro+usc"
	case SimABR:
		return "sim-abr"
	case SimABRUSC:
		return "sim-abr+usc"
	case SimABRUSCHAU:
		return "sim-abr+usc+hau"
	case SimHAU:
		return "sim-hau"
	default:
		return "unknown"
	}
}

// simulated reports whether the policy is timed on the sim machine.
func (p Policy) simulated() bool { return p >= SimBaseline }

// adaptive reports whether the policy runs the ABR controller.
func (p Policy) adaptive() bool {
	switch p {
	case ABR, ABRUSC, SimABR, SimABRUSC, SimABRUSCHAU:
		return true
	}
	return false
}

// Config configures a Runner.
type Config struct {
	// Policy is the update execution strategy.
	Policy Policy
	// ABRParams tunes the controller; zero value means
	// abr.DefaultParams.
	ABRParams abr.Params
	// Oracle supplies ground-truth reorder decisions for PerfectABR
	// (and, if set, replaces instrumented decisions in Sim policies,
	// where ABR overhead is not part of the simulated time anyway).
	Oracle func(b *graph.Batch) bool
	// OCA configures compute aggregation. The zero value enables OCA
	// with the paper's threshold; set OCA.Disabled for baselines.
	OCA oca.Config
	// Workers is the software engine worker count (0 = GOMAXPROCS).
	Workers int
	// Compute is the analytics engine run after updates; nil skips
	// the compute phase (update-only studies).
	Compute compute.Engine
	// ConcurrentCompute overlaps each computation round with the next
	// batch's update (the GraphOne/Aspen-style latency hiding the
	// paper discusses in Section 6.2.3): the round runs on an
	// immutable view pinned at this batch's boundary — a flat CSR
	// copy, or a pinned epoch snapshot in Epoch mode — while the live
	// store ingests the next batch. Round results land in the batch's
	// metrics when the round finishes; call Finish before reading
	// final metrics.
	ConcurrentCompute bool
	// Epoch routes updates through the lock-free epoch store and
	// engine: batches apply with run-partitioned writers and publish
	// atomically at an epoch boundary, and compute rounds (plus any
	// server queries) read wait-free pinned snapshots instead of
	// stop-the-world CSR copies. Software policies only — Sim policies
	// time the locked engines' memory behavior and panic if combined
	// with this flag. The adjacency Store() accessor is nil in this
	// mode; use ReadStore or EpochStore.
	Epoch bool
	// SimConfig is the simulated machine for Sim policies; zero
	// value means sim.DefaultConfig.
	SimConfig sim.Config
	// Obs, when non-nil, receives metrics and per-batch decision
	// traces from every pipeline stage (see internal/obs). The
	// instrumentation is cheap enough to leave on; nil disables it
	// entirely.
	Obs *obs.Observer
	// Fault, when non-nil, injects deterministic faults at the
	// update and compute stage boundaries (see internal/fault).
	// fault.Disabled (nil) is zero-cost: one predictable branch per
	// boundary, gated by BenchmarkFaultOverhead.
	Fault *fault.Injector
	// Shed configures the load-shed ladder; the zero value disables
	// shedding. Requires a pressure source (SetPressure).
	Shed ShedConfig
	// Recover makes the overlapped-compute goroutine recover panics
	// instead of crashing the process, recording them in Obs. Serving
	// deployments (internal/server) set it; batch experiments keep
	// the default crash-fast behavior so a panic is never silently
	// converted into stale analytics.
	Recover bool
	// Shadow, when non-nil, is an adaptive store replica that ingests
	// every processed batch after the primary update. Its migration
	// controller is fed the pipeline's ABR-observed input profile
	// (delete ratio, degree skew, CAD_λ), so the replica migrates the
	// live graph between representations as the stream's profile
	// drifts; its spans and decision audits land in the batch trace.
	Shadow *graph.AdaptiveStore
}

// BatchMetrics records one processed batch.
type BatchMetrics struct {
	BatchID int
	// ABRActive marks instrumented batches: ABR-active batches under
	// adaptive policies, every reordered batch under the others.
	// Reordered is the decision in effect; UsedHAU that the batch ran
	// in the HW mode.
	ABRActive bool
	Reordered bool
	UsedHAU   bool
	// CAD is the measured CAD_λ (instrumented batches only).
	CAD float64
	// Locality is OCA's inter-batch locality for this batch.
	Locality float64
	// Update is the software update wall time (includes reordering
	// and any instrumentation overhead). Zero for Sim policies.
	Update time.Duration
	// SimCycles is the simulated update time (Sim policies only).
	SimCycles float64
	// Compute is the computation-round wall time triggered after
	// this batch (zero when the round was deferred by OCA).
	Compute time.Duration
	// AggregatedBatches is how many batches the compute round
	// covered (0 when no round ran).
	AggregatedBatches int
	// Stats are the update engine counters (software policies).
	Stats update.Stats
	// HAUResult holds the simulator's per-core report (Sim policies).
	HAUResult *hau.Result
}

// RunMetrics aggregates a whole run.
type RunMetrics struct {
	Policy  Policy
	Batches []BatchMetrics
}

// UpdateSeconds returns total software update time in seconds.
func (r *RunMetrics) UpdateSeconds() float64 {
	var d time.Duration
	for i := range r.Batches {
		d += r.Batches[i].Update
	}
	return d.Seconds()
}

// ComputeSeconds returns total compute time in seconds.
func (r *RunMetrics) ComputeSeconds() float64 {
	var d time.Duration
	for i := range r.Batches {
		d += r.Batches[i].Compute
	}
	return d.Seconds()
}

// SimCycles returns total simulated update cycles.
func (r *RunMetrics) SimCycles() float64 {
	var c float64
	for i := range r.Batches {
		c += r.Batches[i].SimCycles
	}
	return c
}

// UpdateSecondsEquivalent returns the update time in seconds for any
// policy: wall time for software policies, simulated cycles divided
// by the core frequency for Sim policies.
func (r *RunMetrics) UpdateSecondsEquivalent(freqGHz float64) float64 {
	if r.Policy.simulated() {
		return r.SimCycles() / (freqGHz * 1e9)
	}
	return r.UpdateSeconds()
}

// Runner executes one policy over a batch stream. ProcessBatch is not
// safe for concurrent use, but MetricsSnapshot may be called from any
// goroutine while batches are in flight.
type Runner struct {
	cfg        Config
	store      *graph.AdjacencyStore
	controller *abr.Controller
	agg        *oca.Aggregator

	baseEng *update.Baseline
	roEng   *update.Reordered
	uscEng  *update.Reordered

	// estore/epochEng replace store and the locked engines when
	// Config.Epoch is set; exactly one of store/estore is non-nil.
	estore   *graph.EpochStore
	epochEng *update.EpochEngine

	simulator *hau.Simulator // Sim policies only

	// computeCh signals completion of the in-flight async round
	// (ConcurrentCompute); at most one round is outstanding.
	computeCh chan struct{}

	// pressure supplies the load-shed ladder's input (see SetPressure);
	// shedLast is the level in effect for the previous batch. It is only
	// mutated by ProcessBatch, but transitions are interesting to
	// concurrent observers (tests, the serving layer), so it rides under
	// the metrics lock.
	pressure func() float64
	shedLast ShedLevel //sglint:guard mu

	// activeTrace is the trace of the batch currently inside
	// ProcessBatch, kept so the isolation boundary (harden.go) can close
	// its span tree when a panic unwinds past the normal emit path. Read
	// and written only by the ProcessBatch goroutine.
	activeTrace *obs.BatchTrace

	// model is the per-edge update cost model behind the decision
	// audits' regret accounting (regret.go). ProcessBatch-goroutine only.
	model costModel

	// mu guards metrics: the ConcurrentCompute goroutine fills a
	// batch's Compute/AggregatedBatches fields after ProcessBatch has
	// returned, so concurrent readers must go through MetricsSnapshot.
	mu      sync.Mutex
	metrics RunMetrics //sglint:guard mu
}

// NewRunner builds a runner over a store pre-sized for numVertices.
// With Config.Epoch set the store is a lock-free epoch store; the
// locked adjacency store otherwise.
func NewRunner(cfg Config, numVertices int) *Runner {
	if cfg.Epoch {
		if cfg.Policy.simulated() {
			panic("pipeline: Epoch mode times real software updates; Sim policies simulate the locked engines")
		}
		r := NewRunnerWithStore(cfg, nil)
		r.estore = graph.NewEpochStore(numVertices, graph.EpochOptions{})
		r.epochEng = &update.EpochEngine{Cfg: update.Config{Workers: cfg.Workers, Obs: cfg.Obs}}
		return r
	}
	return NewRunnerWithStore(cfg, graph.NewAdjacencyStore(numVertices))
}

// NewRunnerWithStore builds a runner over an existing store — e.g. a
// snapshot restored by internal/trace. The analytics engine (if any)
// starts empty; run Compute.Update(store) once to initialize results
// for the pre-existing graph.
func NewRunnerWithStore(cfg Config, store *graph.AdjacencyStore) *Runner {
	params := cfg.ABRParams
	if params == (abr.Params{}) {
		params = abr.DefaultParams
	}
	cfg.ABRParams = params
	engCfg := update.Config{Workers: cfg.Workers, Obs: cfg.Obs}
	r := &Runner{
		cfg:        cfg,
		store:      store,
		controller: abr.NewController(params),
		agg:        oca.NewAggregator(cfg.OCA),
		baseEng:    &update.Baseline{Cfg: engCfg},
		roEng:      &update.Reordered{Cfg: engCfg},
		uscEng:     &update.Reordered{Cfg: engCfg, USC: true},
	}
	r.controller.SetObserver(cfg.Obs)
	r.agg.SetObserver(cfg.Obs)
	if cfg.Policy.simulated() {
		simCfg := cfg.SimConfig
		if simCfg.Cores == 0 {
			simCfg = sim.DefaultConfig()
		}
		r.simulator = hau.NewSimulator(simCfg, hau.ModeBaseline)
	}
	r.metrics.Policy = cfg.Policy
	return r
}

// Store exposes the adjacency graph state (for verification and
// examples). Nil in Epoch mode — use ReadStore or EpochStore there.
func (r *Runner) Store() *graph.AdjacencyStore { return r.store }

// EpochStore exposes the lock-free store in Epoch mode; nil otherwise.
func (r *Runner) EpochStore() *graph.EpochStore { return r.estore }

// ReadStore returns the live graph state as a read interface in either
// mode. Reads through it see the latest published batch; callers that
// need a stable point-in-time view concurrent with ingest should pin a
// snapshot via EpochStore().Snapshot() instead.
func (r *Runner) ReadStore() graph.Store {
	if r.estore != nil {
		return r.estore
	}
	return r.store
}

// computeSnapshot pins this batch's boundary for an overlapped compute
// round: a wait-free epoch snapshot in Epoch mode (release returns the
// pin), a flat CSR copy otherwise (release is a no-op).
func (r *Runner) computeSnapshot() (graph.Store, func()) {
	if r.estore != nil {
		snap := r.estore.Snapshot()
		return snap, snap.Release
	}
	return r.store.SnapshotCSR(), func() {}
}

// Metrics returns the metrics accumulated so far. The returned
// pointer aliases live state: with ConcurrentCompute enabled it is
// only safe to read after Finish (or between batches); concurrent
// readers must use MetricsSnapshot instead.
func (r *Runner) Metrics() *RunMetrics { return &r.metrics } //sglint:ignore guardfield documented aliasing accessor: only safe after Finish, concurrent readers use MetricsSnapshot

// MetricsSnapshot returns a copy of the run metrics that is safe to
// read while batches (and their overlapped compute rounds) are in
// flight on other goroutines.
func (r *Runner) MetricsSnapshot() RunMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunMetrics{
		Policy:  r.metrics.Policy,
		Batches: append([]BatchMetrics(nil), r.metrics.Batches...),
	}
}

// appendMetrics records bm under the metrics lock and returns the
// slot index (stable: batches are only ever appended).
func (r *Runner) appendMetrics(bm BatchMetrics) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics.Batches = append(r.metrics.Batches, bm)
	return len(r.metrics.Batches) - 1
}

// ProcessBatch runs the full per-batch pipeline and returns its
// metrics (also appended to the run metrics). With ConcurrentCompute
// the previous batch's round genuinely overlaps this batch's update:
// the round reads a view pinned at its own batch's boundary (an epoch
// snapshot or a CSR copy), so this update cannot leak into it, and the
// drain point sits at round-launch time rather than here.
func (r *Runner) ProcessBatch(b *graph.Batch) BatchMetrics {
	r.activeTrace = nil

	o := r.cfg.Obs
	tr := o.StartBatch(b.ID, len(b.Edges), r.cfg.Policy.String(), b.TraceID)
	r.activeTrace = tr
	shed := r.shedStep(tr)

	var bm BatchMetrics
	bm.BatchID = b.ID

	delRatio := -1.0
	if (tr != nil || r.cfg.Shadow != nil) && len(b.Edges) > 0 {
		del := 0
		for i := range b.Edges {
			if b.Edges[i].Delete {
				del++
			}
		}
		delRatio = float64(del) / float64(len(b.Edges))
		if tr != nil {
			tr.DeleteRatio = delRatio
		}
	}

	// Injected store-latency spikes and update panics fire here,
	// before any store mutation: a recovered update panic leaves the
	// graph exactly as it was, which is what makes server-side batch
	// retries idempotent.
	r.cfg.Fault.BeforeUpdate()

	var prof abr.Profile // zero on baseline-engine batches
	if r.cfg.Policy.simulated() {
		prof = r.processSim(b, &bm, tr)
	} else {
		prof = r.processSoftware(b, &bm, tr, shed)
	}

	// Run-shape telemetry from the reordered path's destination runs
	// (absent on baseline-engine batches).
	skew := -1.0
	if prof.Runs > 0 {
		skew = float64(prof.MaxRun) / float64(len(b.Edges))
		if tr != nil {
			tr.MeanRunLen = float64(len(b.Edges)) / float64(prof.Runs)
			tr.MaxRunLen = prof.MaxRun
			tr.DegreeSkew = skew
		}
	}

	// Shadow adaptive store: replay the batch into the live replica and
	// feed its migration controller the profile this pipeline already
	// observed — delete ratio, run-shape skew, and CAD_λ on ABR-active
	// batches. Fields the pipeline did not measure this batch stay
	// negative so the controller's EWMA skips them rather than decaying
	// toward zero on uninstrumented or baseline-engine batches.
	if sh := r.cfg.Shadow; sh != nil {
		cad := -1.0
		if bm.ABRActive {
			cad = bm.CAD
		}
		shadowSpan := tr.StartSpan("shadow_store")
		sh.ApplyBatchObserved(b, graph.InputProfile{
			Edges:       len(b.Edges),
			DeleteRatio: delRatio,
			DegreeSkew:  skew,
			CAD:         cad,
		}, tr)
		shadowSpan.End()
	}

	// OCA: feed locality from this batch's counters when instrumented
	// (active batches under adaptive policies; every batch otherwise).
	ocaSpan := tr.StartSpan("oca_decide")
	if bm.ABRActive || !r.cfg.Policy.adaptive() {
		r.agg.Observe(bm.Stats.UniqueVerts, bm.Stats.OverlapVerts)
	}
	bm.Locality = r.agg.Locality()

	// Compute phase, possibly aggregated, possibly overlapped with
	// the next batch's update. Under shed pressure the batch's round
	// is parked unconditionally (the ladder's first rung): compute is
	// delayed until pressure drops or Finish, never lost.
	var toCompute []*graph.Batch
	if r.cfg.Compute != nil {
		if shed >= ShedSkipCompute {
			r.agg.Defer(b)
		} else {
			toCompute = r.agg.Next(b)
		}
	}
	ocaSpan.End()
	// ocaIdx locates the OCA audit so the compute path (possibly on the
	// overlapped goroutine) can fill in the round's realized cost.
	ocaIdx := -1
	if tr != nil {
		tr.ABRActive = bm.ABRActive
		tr.Reordered = bm.Reordered
		tr.UsedHAU = bm.UsedHAU
		tr.CAD = bm.CAD
		tr.CADThreshold = r.cfg.ABRParams.TH
		tr.SimCycles = bm.SimCycles
		tr.Locality = bm.Locality
		tr.LocalityThreshold = r.cfg.OCA.EffectiveThreshold()
		tr.ComputeDeferred = r.cfg.Compute != nil && len(toCompute) == 0 &&
			(!r.cfg.OCA.Disabled || shed >= ShedSkipCompute)
		if r.cfg.Compute != nil {
			tr.Decisions = append(tr.Decisions,
				r.agg.Audit(b.ID, tr.ComputeDeferred, len(toCompute)))
			ocaIdx = len(tr.Decisions) - 1
		}
	}

	if r.cfg.Compute != nil {
		if len(toCompute) > 0 && r.cfg.ConcurrentCompute {
			// Pin this batch's boundary BEFORE draining the previous
			// round: once the pin is taken the next batch's update
			// cannot perturb what this round will read, so the drain
			// (required — the compute engine is shared state between
			// rounds) can happen at any later point without a stale or
			// forward read. Taking the snapshot after the drain would
			// be equally safe here, but pinning first is what keeps
			// the invariant local and interleaving-proof: the view is
			// fixed at the moment the round is decided.
			snap, release := r.computeSnapshot()
			r.waitCompute()
			slot := r.appendMetrics(bm)
			r.computeCh = make(chan struct{})
			go func(done chan struct{}) {
				defer close(done)
				// The pin must drop even if the round panics: a leaked
				// pin stalls reclamation for the rest of the process.
				defer release()
				// Without Recover a compute-engine panic crashes the
				// process rather than being converted into silently
				// stale results; serving deployments opt into recovery
				// and surface the failure through obs instead.
				defer func() {
					if !r.cfg.Recover {
						return
					}
					if v := recover(); v != nil && o != nil {
						o.PanicsTotal.Inc()
						if tr != nil {
							tr.Panicked = true
							tr.PanicValue = fmt.Sprint(v)
							o.EmitBatch(tr)
						}
					}
				}()
				r.cfg.Fault.BeforeCompute()
				cs := time.Now()
				r.cfg.Compute.Update(snap, toCompute...)
				d := time.Since(cs)
				r.mu.Lock()
				r.metrics.Batches[slot].Compute = d
				r.metrics.Batches[slot].AggregatedBatches = len(toCompute)
				r.mu.Unlock()
				if tr != nil {
					tr.AddDerivedSpan(nil, "compute", cs, d)
					tr.AggregatedBatches = len(toCompute)
					if ocaIdx >= 0 {
						tr.Decisions[ocaIdx].RealizedNs = d.Nanoseconds()
					}
					o.EmitBatch(tr)
				}
			}(r.computeCh)
			return bm
		}
		if len(toCompute) > 0 {
			// Synchronous rounds still drain any overlapped predecessor:
			// the engine is shared state.
			r.waitCompute()
			r.cfg.Fault.BeforeCompute()
			cs := time.Now()
			r.cfg.Compute.Update(r.ReadStore(), toCompute...)
			bm.Compute = time.Since(cs)
			bm.AggregatedBatches = len(toCompute)
			tr.AddDerivedSpan(nil, "compute", cs, bm.Compute)
			if tr != nil {
				tr.AggregatedBatches = len(toCompute)
				if ocaIdx >= 0 {
					tr.Decisions[ocaIdx].RealizedNs = bm.Compute.Nanoseconds()
				}
			}
		}
	}

	r.appendMetrics(bm)
	o.EmitBatch(tr)
	return bm
}

// waitCompute blocks until the in-flight async round (if any) ends.
func (r *Runner) waitCompute() {
	if r.computeCh != nil {
		<-r.computeCh
		r.computeCh = nil
	}
}

// Finish waits for any in-flight concurrent round and flushes any
// compute round OCA deferred at end of stream.
func (r *Runner) Finish() {
	r.waitCompute()
	if r.cfg.Compute == nil {
		return
	}
	if rest := r.agg.Flush(); len(rest) > 0 {
		r.cfg.Fault.BeforeCompute()
		cs := time.Now()
		r.cfg.Compute.Update(r.ReadStore(), rest...)
		d := time.Since(cs)
		r.mu.Lock()
		last := &r.metrics.Batches[len(r.metrics.Batches)-1]
		last.Compute += d
		last.AggregatedBatches += len(rest)
		r.mu.Unlock()
		if o := r.cfg.Obs; o != nil {
			o.ComputeSeconds.Observe(d.Seconds())
		}
	}
}

// decide produces this batch's (active, reorder) pair per policy.
func (r *Runner) decide(b *graph.Batch) (active, reorderNow bool) {
	switch r.cfg.Policy {
	case Baseline, SimBaseline:
		return false, false
	case AlwaysRO, AlwaysROUSC, SimRO, SimROUSC:
		return false, true
	case SimHAU:
		return false, false
	case PerfectABR:
		return false, r.cfg.Oracle(b)
	default: // adaptive policies
		if r.cfg.Oracle != nil && r.cfg.Policy.simulated() {
			// Sim policies may use the oracle: ABR's software
			// overhead is outside the simulated time anyway.
			return false, r.cfg.Oracle(b)
		}
		return r.controller.NextBatch()
	}
}

// processSoftware runs one batch in the real software engines and
// returns the batch's destination-run profile (zero when the engine
// did not sort the batch). At the force-baseline shed rung the ABR
// decision (and its instrumentation) is skipped entirely and the batch
// runs on the locked baseline engine — the path with no reorder cost —
// without advancing the controller's sampling cadence.
func (r *Runner) processSoftware(b *graph.Batch, bm *BatchMetrics, tr *obs.BatchTrace, shed ShedLevel) abr.Profile {
	var active, reorderNow bool
	if shed < ShedForceBaseline {
		decideSpan := tr.StartSpan("abr_decide")
		active, reorderNow = r.decide(b)
		decideSpan.End()
	}
	// The epoch engine is inherently run-partitioned (it sorts every
	// batch), so the reorder decision degenerates to true there.
	reorderNow = reorderNow || r.estore != nil
	bm.Reordered = reorderNow

	var eng update.Engine = r.baseEng
	var sorter interface{ DstView() []graph.Edge } // the engine, when it sorts
	switch {
	case r.estore != nil:
		eng, sorter = nil, r.epochEng
	case reorderNow:
		e := r.reorderEngine()
		eng, sorter = e, e
	}
	if tr != nil {
		if eng != nil {
			tr.Engine = eng.Name()
		} else {
			tr.Engine = r.epochEng.Name()
		}
	}
	updateSpan := tr.StartSpan("update")
	start := time.Now()
	var st update.Stats
	if eng == nil {
		st, _ = r.epochEng.Apply(r.estore, b)
	} else {
		st = eng.Apply(r.store, b)
	}
	// Instrumentation overlapped with the update. A sorted batch is
	// profiled by one walk over its destination view; an ABR-active
	// batch the engine did not sort pays a sort of the destination keys
	// for its CAD_λ. Adaptive policies report to the controller on
	// their ABR-active batches only; the other policies instrument every
	// sorted batch.
	var prof abr.Profile
	if active || sorter != nil {
		instrSpan := updateSpan.StartChild("abr_instrument")
		if sorter != nil {
			prof = abr.MeasureSorted(sorter.DstView(), r.cfg.ABRParams.Lambda)
		} else {
			prof.CAD = abr.CollectConcurrent(b, r.cfg.ABRParams.Lambda, r.cfg.Workers)
		}
		instrSpan.End()
	}
	switch {
	case active:
		r.controller.Report(prof.CAD)
		if reorderNow && !r.controller.Reordering() {
			// ABR left the reordered path, possibly for good: start the
			// engines over so that an idle one keeps no batch-sized
			// scratch. The next reordered batch grows it again.
			r.roEng = &update.Reordered{Cfg: r.roEng.Cfg}
			r.uscEng = &update.Reordered{Cfg: r.uscEng.Cfg, USC: true}
		}
	case sorter != nil && !r.cfg.Policy.adaptive():
		active = true
		r.cfg.Obs.ObserveCAD(prof.CAD, false)
	}
	if active {
		bm.ABRActive = true
		bm.CAD = prof.CAD
	}
	bm.Update = time.Since(start)
	// The engine reports its reorder sort as a duration; promote it to
	// a child span of the update so per-phase breakdowns can separate
	// reorder cost from raw ingestion.
	if st.Sort > 0 {
		tr.AddDerivedSpan(updateSpan, "reorder", start, st.Sort)
	}
	updateSpan.End()
	bm.Stats = st

	// Decision audit + regret: record what ABR chose, what it cost, and
	// what the cost model says the other mode would have cost.
	if o := r.cfg.Obs; o != nil && tr != nil {
		audit := r.controller.Audit(b.ID, active, bm.CAD, reorderNow)
		audit.RealizedNs = bm.Update.Nanoseconds()
		if est := r.model.estimateAlt(reorderNow, len(b.Edges)); est > 0 {
			audit.EstAltNs = est
			if audit.RealizedNs > est {
				audit.Regret = true
				o.ABRMispredictTotal.Inc()
				o.ABRRegretNs.Add(audit.RealizedNs - est)
			}
		}
		tr.Decisions = append(tr.Decisions, audit)
	}
	r.model.observe(reorderNow, len(b.Edges), bm.Update.Nanoseconds())
	return prof
}

// reorderEngine is the engine for a reordered batch: RO+USC under the
// USC policies, plain RO otherwise.
func (r *Runner) reorderEngine() *update.Reordered {
	switch r.cfg.Policy {
	case AlwaysROUSC, ABRUSC:
		return r.uscEng
	default:
		return r.roEng
	}
}

// processSim runs one batch on the simulated machine, then applies it
// functionally so compute and subsequent batches see real state.
func (r *Runner) processSim(b *graph.Batch, bm *BatchMetrics, tr *obs.BatchTrace) abr.Profile {
	decideSpan := tr.StartSpan("abr_decide")
	active, reorderNow := r.decide(b)
	decideSpan.End()
	bm.ABRActive = active
	bm.Reordered = reorderNow

	switch r.cfg.Policy {
	case SimBaseline:
		r.simulator.Mode = hau.ModeBaseline
	case SimRO:
		r.simulator.Mode = hau.ModeRO
	case SimROUSC:
		r.simulator.Mode = hau.ModeROUSC
	case SimABR:
		if reorderNow {
			r.simulator.Mode = hau.ModeRO
		} else {
			r.simulator.Mode = hau.ModeBaseline
		}
	case SimHAU:
		r.simulator.Mode = hau.ModeHAU
		bm.UsedHAU = true
	case SimABRUSC:
		if reorderNow {
			r.simulator.Mode = hau.ModeROUSC
		} else {
			r.simulator.Mode = hau.ModeBaseline
		}
	case SimABRUSCHAU:
		if reorderNow {
			r.simulator.Mode = hau.ModeROUSC
		} else {
			r.simulator.Mode = hau.ModeHAU
			bm.UsedHAU = true
		}
	default:
		panic(fmt.Sprintf("pipeline: policy %v is not simulated", r.cfg.Policy))
	}

	if tr != nil {
		tr.Engine = r.simulator.Mode.String()
	}
	updateSpan := tr.StartSpan("update")
	res := r.simulator.SimulateBatch(b, r.store)
	bm.SimCycles = res.Cycles
	bm.HAUResult = &res

	// Functional application (not timed): USC engine for speed.
	bm.Stats = r.uscEng.Apply(r.store, b)
	prof := abr.MeasureSorted(r.uscEng.DstView(), r.cfg.ABRParams.Lambda)

	// Adaptive Sim policies without an oracle measure CAD on
	// ABR-active batches and pay the simulated instrumentation cost
	// (cheap on the reordered path, a concurrent-map pass otherwise).
	if active && r.cfg.Policy.adaptive() && r.cfg.Oracle == nil {
		r.controller.Report(prof.CAD)
		bm.CAD = prof.CAD
		bm.SimCycles += r.simulator.SimulateInstrumentation(b, reorderNow)
	}
	updateSpan.End()
	return prof
}

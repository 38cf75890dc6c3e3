package pipeline

import (
	"fmt"
	"runtime/debug"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
)

// ShedLevel is one rung of the load-shed ladder. The ladder reuses the
// paper's adaptive thesis for overload: when the admission queue backs
// up, choose a cheaper per-batch strategy instead of falling over —
// first park analytics (the optional work), then drop to the locked
// baseline update engine, which skips the reorder and the input
// measurement. Under the default every-batch-reordered policy that
// engine costs more per edge than the one it replaces, so the second
// rung no longer sheds update work (ROADMAP item 2). Rejecting
// batches outright is the serving layer's job (internal/server's
// bounded queue), above the pipeline.
type ShedLevel int

const (
	// ShedNone runs the configured policy unmodified.
	ShedNone ShedLevel = iota
	// ShedSkipCompute parks each batch's computation round with OCA
	// (delayed, never lost) while updates proceed normally.
	ShedSkipCompute
	// ShedForceBaseline additionally skips the ABR decision and its
	// instrumentation and forces the locked baseline update engine,
	// the path with no reorder. Implies ShedSkipCompute.
	ShedForceBaseline
)

// String returns the ladder level's trace name.
func (l ShedLevel) String() string {
	switch l {
	case ShedNone:
		return "none"
	case ShedSkipCompute:
		return "skip-compute"
	case ShedForceBaseline:
		return "force-baseline"
	default:
		return "unknown"
	}
}

// ShedConfig sets the pressure thresholds (in [0, 1], from the
// pressure source) at which each rung engages. A zero threshold
// disables its rung, so the zero value disables shedding entirely.
type ShedConfig struct {
	// SkipComputeAt engages ShedSkipCompute at or above this pressure.
	SkipComputeAt float64
	// ForceBaselineAt engages ShedForceBaseline at or above this
	// pressure; it should be >= SkipComputeAt to ladder sensibly.
	ForceBaselineAt float64
}

// Enabled reports whether any rung can engage.
func (c ShedConfig) Enabled() bool {
	return c.SkipComputeAt > 0 || c.ForceBaselineAt > 0
}

// SetPressure attaches the load-shed ladder's input: a function
// returning current ingestion pressure in [0, 1] (internal/server
// reports admission-queue occupancy). Set it before the first batch;
// it is called once per batch from ProcessBatch's goroutine and must
// be safe to call concurrently with whatever maintains the pressure.
func (r *Runner) SetPressure(f func() float64) { r.pressure = f }

// shedStep picks this batch's ladder level from the current pressure,
// records level transitions and per-rung activity in obs, and stamps
// the level into the trace. Sim policies never shed: their update
// cost is simulated cycles, not host time, so degrading them would
// corrupt the experiment being measured.
func (r *Runner) shedStep(tr *obs.BatchTrace) ShedLevel {
	level := ShedNone
	if r.pressure != nil && !r.cfg.Policy.simulated() {
		p := r.pressure()
		if at := r.cfg.Shed.ForceBaselineAt; at > 0 && p >= at {
			level = ShedForceBaseline
		} else if at := r.cfg.Shed.SkipComputeAt; at > 0 && p >= at {
			level = ShedSkipCompute
		}
	}
	r.mu.Lock()
	last := r.shedLast
	r.shedLast = level
	r.mu.Unlock()
	if o := r.cfg.Obs; o != nil {
		if level != last {
			o.ShedTransitionsTotal.Inc()
		}
		if level >= ShedSkipCompute {
			o.ShedSkipComputeTotal.Inc()
		}
		if level >= ShedForceBaseline {
			o.ShedForceBaselineTotal.Inc()
		}
	}
	if tr != nil && level != ShedNone {
		tr.Shed = level.String()
	}
	return level
}

// PanicError wraps a panic recovered at the batch isolation boundary.
type PanicError struct {
	// BatchID is the batch being processed (-1 for Finish).
	BatchID int
	// Value is the original panic value; Stack the goroutine stack at
	// recovery time.
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: batch %d panicked: %v", e.BatchID, e.Value)
}

// Unwrap exposes an error-typed panic value (e.g. fault.Injected) to
// errors.As/Is.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ProcessBatchIsolated is ProcessBatch behind a panic isolation
// boundary: a panic anywhere in the batch's synchronous processing is
// recovered into a *PanicError, recorded in obs, and the Runner stays
// usable for subsequent batches. Injected update panics fire before
// any store mutation, so after an error the store holds exactly the
// pre-batch state and re-submitting the same batch is safe (and, per
// the batch semantics contract, idempotent even if the failure came
// after the update).
//
// The isolation boundary covers this goroutine only: overlapped
// compute runs on its own goroutine and needs Config.Recover to
// survive panics there. Serving callers set both.
func (r *Runner) ProcessBatchIsolated(b *graph.Batch) (bm BatchMetrics, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{BatchID: b.ID, Value: v, Stack: debug.Stack()}
			// The in-flight trace (if StartBatch ran before the panic)
			// carries the batch's partial span tree; ObservePanic closes
			// its root span with the panicked attribute.
			r.cfg.Obs.ObservePanic(r.activeTrace, b.ID, len(b.Edges), r.cfg.Policy.String(), v)
			r.activeTrace = nil
		}
	}()
	return r.ProcessBatch(b), nil
}

// FinishIsolated is Finish behind the same isolation boundary. A
// panicked flush loses the parked rounds' analytics (graph state is
// unaffected); retrying is a no-op success.
func (r *Runner) FinishIsolated() (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{BatchID: -1, Value: v, Stack: debug.Stack()}
			r.cfg.Obs.ObservePanic(nil, -1, 0, r.cfg.Policy.String(), v)
		}
	}()
	r.Finish()
	return nil
}

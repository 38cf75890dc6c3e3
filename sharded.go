package streamgraph

import (
	"runtime/debug"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
)

// ShardReport summarizes a sharded system's partitioning state; see
// System.ShardReport.
type ShardReport = shard.Report

// ShardInfo is one shard's row in a ShardReport.
type ShardInfo = shard.ShardInfo

// DecisionAudit is one controller decision record (ABR, OCA, or the
// shard repartitioner); see System.ShardAudits.
type DecisionAudit = obs.DecisionAudit

// initSharded sets up the N-shard variant of the system: vertices are
// partitioned across cfg.Shards pipeline instances by consistent
// hashing, and cross-shard edges are mirrored to both endpoint owners.
// The shards only ingest. The engine is the one a single pipeline
// runs, updated over the router's merged view by applySharded, with
// one OCA aggregator deciding when. The dynamic repartitioner is on
// with its defaults.
func (s *System) initSharded(seed *graph.AdjacencyStore) {
	cfg := s.cfg
	if cfg.LockFree {
		panic("streamgraph: Config.LockFree is incompatible with Shards > 1")
	}
	if cfg.ShadowStore != "" {
		panic("streamgraph: Config.ShadowStore is incompatible with Shards > 1")
	}
	s.agg = oca.NewAggregator(oca.Config{Disabled: cfg.DisableOCA})
	s.router = shard.New(shard.Config{
		Shards:   cfg.Shards,
		Vertices: cfg.Vertices,
		Pipeline: cfg.pipelineConfig(),
		Seed:     seed,
		// The observability bundle and fault injector attach to shard 0
		// only: metrics and decision traces stay single-writer per
		// batch, and injected fault schedules remain deterministic
		// (fan-out interleaving would scramble a shared counter).
		PerShard: func(i int, c pipeline.Config) pipeline.Config {
			if i == 0 {
				c.Obs = cfg.Observer
				c.Fault = cfg.Fault
			}
			return c
		},
	})
}

// applySharded routes one batch through the shard router, then runs
// the batch's computation round the way a pipeline does: OCA observes
// the shards' summed locality counters and may defer the round, and
// the load-shed ladder's skip-compute rung parks it. The pressure is
// read once, before the shards run, and every shard's ladder and the
// round's see that one reading.
func (s *System) applySharded(edges []Edge, traceID uint64) (Result, error) {
	b := &graph.Batch{ID: s.nextID, TraceID: traceID, Edges: edges}
	s.nextID++
	if s.pressure != nil {
		s.batchPressure = s.pressure()
	}
	res, err := s.router.Apply(b)
	if err != nil {
		return Result{}, err
	}
	// A pipeline measures locality on instrumented batches only under
	// the adaptive policy, and on every batch otherwise.
	if res.Instrumented || s.cfg.Policy != Adaptive {
		s.agg.Observe(res.UniqueVerts, res.OverlapVerts)
	}
	out := Result{
		BatchID:           res.BatchID,
		Reordered:         res.Reordered,
		Instrumented:      res.Instrumented,
		CAD:               res.CAD,
		Locality:          s.agg.Locality(),
		Update:            res.Update,
		Locks:             res.Locks,
		SearchComparisons: res.Comparisons,
	}
	if s.eng == nil {
		return out, nil
	}
	var round []*graph.Batch
	if s.shedCompute() {
		s.agg.Defer(b)
	} else {
		round = s.agg.Next(b)
	}
	// The shards' pipelines have no engine, so their aggregators
	// record no rounds; the facade records its own.
	s.cfg.Observer.ObserveRound(len(round), len(round) == 0)
	out.Compute = s.computeRound(round)
	out.ComputedBatches = len(round)
	return out, nil
}

// shedCompute reports whether the load-shed ladder parks this batch's
// round: the batch's pressure reached the skip-compute rung, or the
// force-baseline rung that implies it. This is the rule by which
// pipeline.Runner picks its ladder level.
func (s *System) shedCompute() bool {
	if s.pressure == nil {
		return false
	}
	p, sh := s.batchPressure, s.cfg.Shed
	return sh.SkipComputeAt > 0 && p >= sh.SkipComputeAt ||
		sh.ForceBaselineAt > 0 && p >= sh.ForceBaselineAt
}

// computeRound updates the engine over the merged view for the given
// batches, behind the same fault-injection point as a pipeline's round,
// and returns its duration (zero when there is nothing to compute).
func (s *System) computeRound(batches []*graph.Batch) time.Duration {
	if len(batches) == 0 {
		return 0
	}
	s.cfg.Fault.BeforeCompute()
	start := time.Now()
	s.eng.Update(s.router.View(), batches...)
	d := time.Since(start)
	if o := s.cfg.Observer; o != nil {
		o.ComputeSeconds.Observe(d.Seconds())
	}
	return d
}

// flushSharded drains the shards and runs the round OCA deferred.
func (s *System) flushSharded() error {
	if err := s.router.Flush(); err != nil {
		return err
	}
	rest := s.agg.Flush()
	if len(rest) > 0 {
		s.cfg.Observer.ObserveRound(len(rest), false)
	}
	s.computeRound(rest)
	return nil
}

// isolate runs fn behind the panic isolation boundary a pipeline draws
// around a batch: a panic returns as a *pipeline.PanicError and is
// counted by the observer. An engine whose round panicked part-way
// recovers on its next update, as it does behind a pipeline.
func (s *System) isolate(batchID, edges int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Observer.ObservePanic(nil, batchID, edges, s.cfg.pipelineConfig().Policy.String(), v)
			err = &pipeline.PanicError{BatchID: batchID, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Sharded reports whether the system runs partitioned across multiple
// pipeline instances (Config.Shards > 1).
func (s *System) Sharded() bool { return s.router != nil }

// ShardReport returns the sharded system's partitioning summary: per
// shard, the batches routed, edges applied, isolated panics, and
// currently owned vertices/edges, plus the migration count. The zero
// report when the system is unsharded.
func (s *System) ShardReport() ShardReport {
	if s.router == nil {
		return ShardReport{}
	}
	return s.router.Report()
}

// ShardAudits returns the repartitioner's decision audit log (nil when
// unsharded). Holds and migrations both appear, Controller "repart".
func (s *System) ShardAudits() []DecisionAudit {
	if s.router == nil {
		return nil
	}
	return s.router.Audits()
}

package update

// EpochEngine is the lock-free hot path's update engine: reorder the
// batch with the shared radix partitioner, apply each vertex run by
// building the vertex's next version in arena memory (graph.EpochStore
// owns the version protocol), and publish the whole batch with one
// epoch advance. No per-vertex locks anywhere — run partitioning gives
// writers exclusivity and epoch pinning gives readers consistency — so
// Stats.Locks is always zero, and a warmed engine allocates nothing
// per edge (the allocation-regression tests pin this down; sglint's
// hotpathalloc polices it statically).

import (
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/reorder"
)

// EpochEngine applies batches to an EpochStore. One engine owns its
// partitioner; uses of one engine are serialized by the store's
// writer lock (BeginBatch/FinishBatch bracket every Apply).
type EpochEngine struct {
	Cfg  Config
	part reorder.Partitioner
	run  []runWorker
}

// Name identifies the engine in reports and traces.
func (e *EpochEngine) Name() string { return "epoch" }

// Apply ingests b and returns update statistics in the same units as
// the locked engines. The returned epoch (also FinishBatch's value) is
// the batch's position in the store's serialization order.
func (e *EpochEngine) Apply(s *graph.EpochStore, b *graph.Batch) (Stats, uint64) {
	start := time.Now()
	st := Stats{EdgesApplied: int64(len(b.Edges))}
	bid := int32(b.ID)
	workers := e.Cfg.workers()
	if len(e.run) < workers {
		e.run = make([]runWorker, workers)
	}

	s.BeginBatch(workers, int(b.MaxVertex())+1)
	e.part.Partition(b.Edges)
	st.Sort = time.Since(start)

	updStart := time.Now()
	e.applyPass(s, e.part.RunsSrc, e.part.BySrc, true, bid, workers)
	if e.Cfg.CollectDstRuns {
		st.DstRunLens = e.part.DstRunLens()
	}
	e.applyPass(s, e.part.RunsDst, e.part.ByDst, false, bid, workers)
	delta := settle(e.run, &st)
	st.Update = time.Since(updStart)

	epoch := s.FinishBatch(int(delta))
	st.Total = time.Since(start)
	e.Cfg.observe(e.Name(), &st)
	return st, epoch
}

// applyPass executes one pass, inline for a single worker (the
// zero-allocation path) and over the run queue otherwise, each worker
// owning its arena index.
func (e *EpochEngine) applyPass(s *graph.EpochStore, runs []reorder.Run, view []graph.Edge, out bool, bid int32, workers int) {
	if workers == 1 {
		e.run[0].applyEpochRuns(s, 0, runs, view, out, bid)
		return
	}
	parallelRuns(len(runs), workers, func(k, lo, hi int) {
		e.run[k].applyEpochRuns(s, k, runs[lo:hi], view, out, bid)
	})
}

// applyEpochRuns applies vertex runs through arena k (the store's own
// coalescing table, not w's) and folds their counters into w. Only the
// out pass's created-minus-removed count contributes to the store's
// edge total; touching run owners alone covers every vertex of the
// batch across the two passes.
func (w *runWorker) applyEpochRuns(s *graph.EpochStore, k int, runs []reorder.Run, view []graph.Edge, out bool, bid int32) {
	for _, run := range runs {
		rs := s.ApplyRun(k, run.V, out, view[run.Lo:run.Hi])
		w.ws.comparisons += rs.Comparisons
		w.ws.hashOps += rs.HashOps
		if out {
			w.delta += int64(rs.Created - rs.Removed)
		}
		unique, overlap := s.TouchBID(run.V, bid)
		if unique {
			w.ws.unique++
		}
		if overlap {
			w.ws.overlap++
		}
	}
}

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
// partitioner and sorted view (the same scratch layout as Reordered);
// uses of one engine are serialized by the store's writer lock
// (BeginBatch/FinishBatch bracket every Apply).
type EpochEngine struct {
	Cfg Config
	runScratch
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
	workers := e.workers(e.Cfg)

	s.BeginBatch(workers, int(b.MaxVertex())+1)
	e.pass(s, b, true, bid, workers, &st)
	e.pass(s, b, false, bid, workers, &st)
	e.collect(e.Cfg, &st)
	delta := settle(e.run, &st)

	epoch := s.FinishBatch(int(delta))
	st.Total = time.Since(start)
	st.Update = st.Total - st.Sort
	e.Cfg.observe(e.Name(), &st)
	return st, epoch
}

// pass sorts b by source (out) or destination and applies the view's
// runs, inline for a single worker (the zero-allocation path) and over
// the run queue otherwise, each worker owning its arena index.
func (e *EpochEngine) pass(s *graph.EpochStore, b *graph.Batch, out bool, bid int32, workers int, st *Stats) {
	e.sort(b, out, st)
	if workers == 1 {
		e.run[0].applyEpochRuns(s, 0, e.view, out, bid)
		return
	}
	parallelRuns(e.view, out, workers, func(k, lo, hi int) {
		e.run[k].applyEpochRuns(s, k, e.view[lo:hi], out, bid)
	})
}

// applyEpochRuns applies the vertex runs of a span of the sorted view
// through arena k (the store's own coalescing table, not w's) and
// folds their counters into w. Only the out pass's created-minus-
// removed count contributes to the store's edge total; touching run
// owners alone covers every vertex of the batch across the two passes.
func (w *runWorker) applyEpochRuns(s *graph.EpochStore, k int, view []graph.Edge, out bool, bid int32) {
	for lo := 0; lo < len(view); {
		hi := reorder.RunEnd(view, lo, out)
		v := reorder.Key(&view[lo], out)
		rs := s.ApplyRun(k, v, out, view[lo:hi])
		w.ws.comparisons += rs.Comparisons
		w.ws.hashOps += rs.HashOps
		if out {
			w.delta += int64(rs.Created - rs.Removed)
		}
		unique, overlap := s.TouchBID(v, bid)
		if unique {
			w.ws.unique++
		}
		if overlap {
			w.ws.overlap++
		}
		lo = hi
	}
}

package update

import (
	"math"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/reorder"
)

// Reordered is the RO update engine: it pays for two stable radix
// sorts of the batch (by source and by destination) and in exchange
// applies all updates lock-free, one vertex run per thread. With USC
// enabled it additionally coalesces each run's duplicate-check
// searches into a single scan of the vertex's edge data (Section 4.3).
//
// The zero value of the scratch is ready: the partitioner and the
// per-worker coalescing tables size themselves on first use and are
// kept, so a warmed engine allocates only what the adjacency lists
// grow by. What it keeps is O(batch). An engine serves one Apply at a
// time.
type Reordered struct {
	Cfg Config
	USC bool

	part reorder.Partitioner
	run  []runWorker
}

// runWorker is one worker's state across a batch's two passes, for
// both run-partitioned engines.
type runWorker struct {
	ws    workerStats
	delta int64              // net out-edges created
	coal  graph.RunCoalescer // adjacency-store runs; the epoch store's arenas have their own
}

// settle folds the workers' counters into st, returns the batch's net
// edge delta, and leaves the workers ready for the next batch.
func settle(run []runWorker, st *Stats) (delta int64) {
	for i := range run {
		w := &run[i]
		st.add(&w.ws)
		delta += w.delta
		w.ws, w.delta = workerStats{}, 0
	}
	return delta
}

// Name implements Engine.
func (e *Reordered) Name() string {
	if e.USC {
		return "ro+usc"
	}
	return "ro"
}

// Apply implements Engine.
func (e *Reordered) Apply(s *graph.AdjacencyStore, b *graph.Batch) Stats {
	start := time.Now()
	st := Stats{EdgesApplied: int64(len(b.Edges))}
	bid := int32(b.ID)
	s.EnsureVertices(int(b.MaxVertex()) + 1)
	workers := e.Cfg.workers()
	if len(e.run) < workers {
		e.run = make([]runWorker, workers)
	}

	e.part.Partition(b.Edges)
	st.Sort = time.Since(start)

	updStart := time.Now()
	// Pass 1: out-edges, clustered by source.
	e.applyPass(s, e.part.RunsSrc, e.part.BySrc, true, bid, workers)
	if e.Cfg.CollectDstRuns {
		st.DstRunLens = e.part.DstRunLens()
	}
	// Pass 2: in-edges, clustered by destination.
	e.applyPass(s, e.part.RunsDst, e.part.ByDst, false, bid, workers)
	s.AddEdges(settle(e.run, &st))
	st.Update = time.Since(updStart)
	st.Total = time.Since(start)
	e.Cfg.observe(e.Name(), &st)
	return st
}

// applyPass applies one view's runs: inline for a single worker (the
// allocation-free path), over the run queue otherwise.
func (e *Reordered) applyPass(s *graph.AdjacencyStore, runs []reorder.Run, view []graph.Edge, out bool, bid int32, workers int) {
	if workers == 1 {
		e.applyRuns(s, &e.run[0], runs, view, out, bid)
		return
	}
	parallelRuns(len(runs), workers, func(k, lo, hi int) {
		e.applyRuns(s, &e.run[k], runs[lo:hi], view, out, bid)
	})
}

// applyRuns ingests vertex runs into their owners' adjacency: the
// out-list keyed by Dst when out is set, the in-list keyed by Src
// otherwise. The run partition makes this goroutine the only one
// touching an owner's list in this pass. Every vertex of the batch
// owns a run in one of the two passes, so touching owners alone
// maintains latest_bid for all of them.
func (e *Reordered) applyRuns(s *graph.AdjacencyStore, w *runWorker, runs []reorder.Run, view []graph.Edge, out bool, bid int32) {
	minCoalesce := math.MaxInt // plain RO: per-edge linear search, but no locks
	if e.USC {
		minCoalesce = e.Cfg.minCoalesce()
	}
	for _, run := range runs {
		list := s.InUnsafe(run.V)
		if out {
			list = s.OutUnsafe(run.V)
		}
		ns, rs, _ := w.coal.ApplyRunInPlace(list, view[run.Lo:run.Hi], out, minCoalesce)
		if out {
			s.SetOutUncounted(run.V, ns)
			w.delta += int64(rs.Created - rs.Removed)
		} else {
			s.SetInUnsafe(run.V, ns)
		}
		w.ws.comparisons += rs.Comparisons
		w.ws.hashOps += rs.HashOps
		w.ws.touch(s, run.V, bid)
	}
}

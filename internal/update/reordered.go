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
// The zero value of the scratch is ready: the sort's positions, the
// one sorted view both passes share (the batch is re-sorted by
// destination after the out-edge pass) and the per-worker coalescing
// tables size themselves on first use and are kept, so a warmed engine
// allocates only what the adjacency lists grow by. What it keeps is
// O(batch), about 20 bytes per edge plus fixed histograms. An engine
// serves one Apply at a time.
type Reordered struct {
	Cfg Config
	USC bool
	runScratch
}

// runScratch is what both run-partitioned engines keep between
// batches: the partitioner, the one sorted view both passes share, the
// destination run lengths when Config.CollectDstRuns asks for them,
// and the per-worker state.
type runScratch struct {
	part reorder.Partitioner
	view []graph.Edge
	lens []int
	run  []runWorker
}

// DstView returns the last applied batch sorted by destination. It
// aliases the engine's scratch and is valid until the next Apply.
func (r *runScratch) DstView() []graph.Edge { return r.view }

// workers readies per-worker state for a batch and returns the count.
func (r *runScratch) workers(cfg Config) int {
	n := cfg.workers()
	if len(r.run) < n {
		r.run = make([]runWorker, n)
	}
	return n
}

// sort sorts b into the view for one pass and books the time as
// reorder cost.
func (r *runScratch) sort(b *graph.Batch, bySrc bool, st *Stats) {
	start := time.Now()
	r.view = r.part.Sort(r.view, b.Edges, bySrc)
	st.Sort += time.Since(start)
}

// collect records the destination run lengths into st when cfg asks
// for them; call it after the destination pass.
func (r *runScratch) collect(cfg Config, st *Stats) {
	if cfg.CollectDstRuns {
		r.lens = reorder.RunLens(r.lens, r.view, false)
		st.DstRunLens = r.lens
	}
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
	workers := e.workers(e.Cfg)
	e.pass(s, b, true, bid, workers, &st)  // out-edges, clustered by source
	e.pass(s, b, false, bid, workers, &st) // in-edges, clustered by destination
	e.collect(e.Cfg, &st)
	s.AddEdges(settle(e.run, &st))
	st.Total = time.Since(start)
	st.Update = st.Total - st.Sort
	e.Cfg.observe(e.Name(), &st)
	return st
}

// pass sorts b by source (out) or destination and applies the view's
// runs: inline for a single worker (the allocation-free path), over
// the run queue otherwise.
func (e *Reordered) pass(s *graph.AdjacencyStore, b *graph.Batch, out bool, bid int32, workers int, st *Stats) {
	e.sort(b, out, st)
	if workers == 1 {
		e.applyRuns(s, &e.run[0], e.view, out, bid)
		return
	}
	parallelRuns(e.view, out, workers, func(k, lo, hi int) {
		e.applyRuns(s, &e.run[k], e.view[lo:hi], out, bid)
	})
}

// applyRuns ingests the vertex runs of a span of the sorted view into
// their owners' adjacency: the out-list keyed by Dst when out is set,
// the in-list keyed by Src otherwise. The run partition makes this
// goroutine the only one touching an owner's list in this pass. Every
// vertex of the batch owns a run in one of the two passes, so
// touching owners alone maintains latest_bid for all of them.
func (e *Reordered) applyRuns(s *graph.AdjacencyStore, w *runWorker, view []graph.Edge, out bool, bid int32) {
	minCoalesce := math.MaxInt // plain RO: per-edge linear search, but no locks
	if e.USC {
		minCoalesce = e.Cfg.minCoalesce()
	}
	for lo := 0; lo < len(view); {
		hi := reorder.RunEnd(view, lo, out)
		v := reorder.Key(&view[lo], out)
		list := s.InUnsafe(v)
		if out {
			list = s.OutUnsafe(v)
		}
		ns, rs, _ := w.coal.ApplyRunInPlace(list, view[lo:hi], out, minCoalesce)
		if out {
			s.SetOutUncounted(v, ns)
			w.delta += int64(rs.Created - rs.Removed)
		} else {
			s.SetInUnsafe(v, ns)
		}
		w.ws.comparisons += rs.Comparisons
		w.ws.hashOps += rs.HashOps
		w.ws.touch(s, v, bid)
		lo = hi
	}
}

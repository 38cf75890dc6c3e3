package update

import (
	"slices"
	"time"

	"streamgraph/internal/graph"
)

// Baseline is the edge-parallel locked update engine: incoming graph
// changes arrive as edges and the engine treats the edge as the
// granularity of parallelism. Each edge update locks the source vertex
// to search-and-insert into its out-list, then the destination vertex
// for its in-list. This matches the input batch format perfectly (no
// pre-update transformation) at the cost of lock operations — serious
// ones when the batch is high-degree (Section 4.1).
type Baseline struct {
	Cfg Config
}

// Name implements Engine.
func (e *Baseline) Name() string { return "baseline" }

// Apply implements Engine.
func (e *Baseline) Apply(s *graph.AdjacencyStore, b *graph.Batch) Stats {
	start := time.Now()
	var st Stats
	bid := int32(b.ID)
	s.EnsureVertices(int(b.MaxVertex()) + 1)
	workers := e.Cfg.workers()

	// All insertions apply before any deletion. Each pass walks the
	// batch where it lies and skips the other kind, so nothing is
	// copied; an insert-only batch has no second pass.
	pass := func(deletes bool, apply func(*graph.AdjacencyStore, graph.Edge, *workerStats)) {
		parallelChunks(len(b.Edges), workers, &st, func(lo, hi int, w *workerStats) {
			for _, edge := range b.Edges[lo:hi] {
				if edge.Delete != deletes {
					continue
				}
				apply(s, edge, w)
				w.touch(s, edge.Src, bid)
				w.touch(s, edge.Dst, bid)
				w.edges++
			}
		})
	}
	pass(false, insertLocked)
	if slices.ContainsFunc(b.Edges, func(edge graph.Edge) bool { return edge.Delete }) {
		pass(true, deleteLocked)
	}

	st.Update = time.Since(start)
	st.Total = st.Update
	e.Cfg.observe(e.Name(), &st)
	return st
}

// insertLocked applies one insertion with the per-vertex locking
// discipline, counting locks and search comparisons.
func insertLocked(s *graph.AdjacencyStore, e graph.Edge, w *workerStats) {
	s.Lock(e.Src)
	w.locks++
	out := s.OutUnsafe(e.Src)
	found := false
	for i := range out {
		w.comparisons++
		if out[i].ID == e.Dst {
			out[i].Weight = e.Weight
			found = true
			break
		}
	}
	if !found {
		s.AppendOutUnsafe(e.Src, graph.Neighbor{ID: e.Dst, Weight: e.Weight})
	}
	s.Unlock(e.Src)

	s.Lock(e.Dst)
	w.locks++
	in := s.InUnsafe(e.Dst)
	found = false
	for i := range in {
		w.comparisons++
		if in[i].ID == e.Src {
			in[i].Weight = e.Weight
			found = true
			break
		}
	}
	if !found {
		s.AppendInUnsafe(e.Dst, graph.Neighbor{ID: e.Src, Weight: e.Weight})
	}
	s.Unlock(e.Dst)
}

// deleteLocked applies one deletion with the locking discipline.
func deleteLocked(s *graph.AdjacencyStore, e graph.Edge, w *workerStats) {
	s.Lock(e.Src)
	w.locks++
	out := s.OutUnsafe(e.Src)
	removed := false
	for i := range out {
		w.comparisons++
		if out[i].ID == e.Dst {
			out[i] = out[len(out)-1]
			s.SetOutUnsafe(e.Src, out[:len(out)-1])
			removed = true
			break
		}
	}
	s.Unlock(e.Src)
	if !removed {
		return
	}

	s.Lock(e.Dst)
	w.locks++
	in := s.InUnsafe(e.Dst)
	for i := range in {
		w.comparisons++
		if in[i].ID == e.Src {
			in[i] = in[len(in)-1]
			s.SetInUnsafe(e.Dst, in[:len(in)-1])
			break
		}
	}
	s.Unlock(e.Dst)
}

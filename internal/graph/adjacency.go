package graph

import (
	"sync"
	"sync/atomic"
)

// vertexAdj is the per-vertex record of the adjacency store: in/out
// neighbor arrays, the per-vertex lock used by the baseline (locked,
// edge-parallel) update engine, and the latest_bid field that OCA uses
// to measure inter-batch locality.
type vertexAdj struct {
	mu sync.Mutex
	// out and in are written under mu; engines may read them lock-free
	// only during quiescent compute phases (the *Unsafe contract).
	out       []Neighbor //sglint:guard mu writes
	in        []Neighbor //sglint:guard mu writes
	latestBID int32
}

// AdjacencyStore is the shared adjacency-list dynamic graph data
// structure (SAGA-Bench's adListShared equivalent): one growable
// neighbor array per direction per vertex, guarded by a per-vertex
// lock for concurrent edge-parallel updates.
//
// Concurrency model: the vertex table itself is an atomically swapped
// slice of stable per-vertex pointers, so readers never block on
// growth. Adjacency mutation is protected either by the per-vertex
// lock (baseline engine) or by the caller's exclusivity guarantee
// (reordered vertex-centric engines), via the *Unsafe methods.
type AdjacencyStore struct {
	verts   atomic.Pointer[[]*vertexAdj]
	growMu  sync.Mutex
	numEdge atomic.Int64
}

// NewAdjacencyStore returns a store pre-sized for n vertices. The store
// grows automatically when an edge references a larger vertex ID.
func NewAdjacencyStore(n int) *AdjacencyStore {
	s := &AdjacencyStore{}
	vs := make([]*vertexAdj, n)
	for i := range vs {
		vs[i] = &vertexAdj{latestBID: -1}
	}
	s.verts.Store(&vs)
	return s
}

// NumVertices implements Store.
func (s *AdjacencyStore) NumVertices() int { return len(*s.verts.Load()) }

// NumEdges implements Store.
func (s *AdjacencyStore) NumEdges() int { return int(s.numEdge.Load()) }

// EnsureVertices grows the vertex space to at least n vertices. Safe
// for concurrent use; existing per-vertex records are preserved.
func (s *AdjacencyStore) EnsureVertices(n int) {
	if len(*s.verts.Load()) >= n {
		return
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := *s.verts.Load()
	if len(old) >= n {
		return
	}
	// Grow geometrically so streamed ID growth is amortized.
	capN := len(old)*2 + 1
	if capN < n {
		capN = n
	}
	vs := make([]*vertexAdj, capN)
	copy(vs, old)
	for i := len(old); i < capN; i++ {
		vs[i] = &vertexAdj{latestBID: -1}
	}
	s.verts.Store(&vs)
}

func (s *AdjacencyStore) at(v VertexID) *vertexAdj {
	vs := *s.verts.Load()
	if int(v) >= len(vs) {
		s.EnsureVertices(int(v) + 1)
		vs = *s.verts.Load()
	}
	return vs[v]
}

// Lock acquires the per-vertex lock, as the baseline engine does before
// touching v's edge data.
func (s *AdjacencyStore) Lock(v VertexID) { s.at(v).mu.Lock() }

// Unlock releases the per-vertex lock.
func (s *AdjacencyStore) Unlock(v VertexID) { s.at(v).mu.Unlock() }

// OutUnsafe returns v's out-adjacency without copying. The caller must
// hold v's lock or otherwise guarantee exclusive access (reordered
// vertex-centric update).
func (s *AdjacencyStore) OutUnsafe(v VertexID) []Neighbor { return s.at(v).out }

// InUnsafe returns v's in-adjacency without copying under the same
// contract as OutUnsafe.
func (s *AdjacencyStore) InUnsafe(v VertexID) []Neighbor { return s.at(v).in }

// SetOutUnsafe replaces v's out-adjacency. The edge-count delta is
// accounted from the length change. Same exclusivity contract.
func (s *AdjacencyStore) SetOutUnsafe(v VertexID, ns []Neighbor) {
	va := s.at(v)
	s.numEdge.Add(int64(len(ns) - len(va.out)))
	va.out = ns //sglint:ignore guardfield caller guarantees exclusive vertex access (reordered vertex-centric apply)
}

// SetOutUncounted is SetOutUnsafe without the edge-count update: a
// run-partitioned engine sums its length deltas per worker and settles
// them with one AddEdges per batch, not one shared atomic per run.
func (s *AdjacencyStore) SetOutUncounted(v VertexID, ns []Neighbor) {
	s.at(v).out = ns //sglint:ignore guardfield caller guarantees exclusive vertex access (reordered vertex-centric apply)
}

// AddEdges adjusts NumEdges by the net out-edges created through
// SetOutUncounted.
func (s *AdjacencyStore) AddEdges(delta int64) { s.numEdge.Add(delta) }

// SetInUnsafe replaces v's in-adjacency. In-edges are mirrors of
// out-edges and are not counted in NumEdges.
func (s *AdjacencyStore) SetInUnsafe(v VertexID, ns []Neighbor) {
	s.at(v).in = ns //sglint:ignore guardfield caller guarantees exclusive vertex access (reordered vertex-centric apply)
}

// AppendOutUnsafe appends one out-neighbor without a duplicate check.
// Same exclusivity contract; callers perform their own duplicate scan.
func (s *AdjacencyStore) AppendOutUnsafe(v VertexID, n Neighbor) {
	va := s.at(v)
	va.out = append(va.out, n) //sglint:ignore guardfield caller guarantees exclusive vertex access (reordered vertex-centric apply)
	s.numEdge.Add(1)
}

// AppendInUnsafe appends one in-neighbor without a duplicate check.
func (s *AdjacencyStore) AppendInUnsafe(v VertexID, n Neighbor) {
	va := s.at(v)
	va.in = append(va.in, n) //sglint:ignore guardfield caller guarantees exclusive vertex access (reordered vertex-centric apply)
}

// LatestBID returns the last batch ID in which v appeared, or -1.
func (s *AdjacencyStore) LatestBID(v VertexID) int32 {
	return atomic.LoadInt32(&s.at(v).latestBID)
}

// SetLatestBID records that v appeared in batch bid. Engines call this
// during edge updates; it is atomic so both locked and lock-free
// engines may use it.
func (s *AdjacencyStore) SetLatestBID(v VertexID, bid int32) {
	atomic.StoreInt32(&s.at(v).latestBID, bid)
}

// SwapLatestBID atomically sets latest_bid to bid and returns the
// previous value. OCA uses the previous value to count overlapped
// vertices exactly once per batch.
func (s *AdjacencyStore) SwapLatestBID(v VertexID, bid int32) int32 {
	return atomic.SwapInt32(&s.at(v).latestBID, bid)
}

// OutDegree implements Store.
func (s *AdjacencyStore) OutDegree(v VertexID) int {
	if int(v) >= s.NumVertices() {
		return 0
	}
	return len(s.at(v).out)
}

// InDegree implements Store.
func (s *AdjacencyStore) InDegree(v VertexID) int {
	if int(v) >= s.NumVertices() {
		return 0
	}
	return len(s.at(v).in)
}

// ForEachOut implements Store. It is intended for the (quiescent)
// compute phase and does not take the vertex lock.
func (s *AdjacencyStore) ForEachOut(v VertexID, fn func(Neighbor)) {
	if int(v) >= s.NumVertices() {
		return
	}
	for _, n := range s.at(v).out {
		fn(n)
	}
}

// ForEachIn implements Store under the same contract as ForEachOut.
func (s *AdjacencyStore) ForEachIn(v VertexID, fn func(Neighbor)) {
	if int(v) >= s.NumVertices() {
		return
	}
	for _, n := range s.at(v).in {
		fn(n)
	}
}

// HasEdge implements Store.
func (s *AdjacencyStore) HasEdge(src, dst VertexID) bool {
	if int(src) >= s.NumVertices() {
		return false
	}
	for _, n := range s.at(src).out {
		if n.ID == dst {
			return true
		}
	}
	return false
}

// InsertEdge implements Mutable: a safe single-edge insertion that
// locks src and dst in turn, performs the duplicate-check search, and
// updates the weight if the edge exists. Returns true if a new edge
// was created.
func (s *AdjacencyStore) InsertEdge(e Edge) bool {
	s.EnsureVertices(int(e.Src) + 1)
	s.EnsureVertices(int(e.Dst) + 1)

	sa := s.at(e.Src)
	sa.mu.Lock()
	added := true
	for i := range sa.out {
		if sa.out[i].ID == e.Dst {
			sa.out[i].Weight = e.Weight
			added = false
			break
		}
	}
	if added {
		sa.out = append(sa.out, Neighbor{ID: e.Dst, Weight: e.Weight})
	}
	sa.mu.Unlock()

	da := s.at(e.Dst)
	da.mu.Lock()
	found := false
	for i := range da.in {
		if da.in[i].ID == e.Src {
			da.in[i].Weight = e.Weight
			found = true
			break
		}
	}
	if !found {
		da.in = append(da.in, Neighbor{ID: e.Src, Weight: e.Weight})
	}
	da.mu.Unlock()

	if added {
		s.numEdge.Add(1)
	}
	return added
}

// DeleteEdge implements Mutable. Returns true if the edge existed.
func (s *AdjacencyStore) DeleteEdge(src, dst VertexID) bool {
	if int(src) >= s.NumVertices() || int(dst) >= s.NumVertices() {
		return false
	}
	sa := s.at(src)
	sa.mu.Lock()
	removed := false
	for i := range sa.out {
		if sa.out[i].ID == dst {
			sa.out[i] = sa.out[len(sa.out)-1]
			sa.out = sa.out[:len(sa.out)-1]
			removed = true
			break
		}
	}
	sa.mu.Unlock()
	if !removed {
		return false
	}

	da := s.at(dst)
	da.mu.Lock()
	for i := range da.in {
		if da.in[i].ID == src {
			da.in[i] = da.in[len(da.in)-1]
			da.in = da.in[:len(da.in)-1]
			break
		}
	}
	da.mu.Unlock()
	s.numEdge.Add(-1)
	return true
}

var _ Mutable = (*AdjacencyStore)(nil)

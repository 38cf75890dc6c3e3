package graph

// EpochStore is the lock-free hot path: a multi-version adjacency
// store whose readers are wait-free and whose writers take no
// per-vertex locks. Each vertex direction holds an atomic head pointer
// to an immutable version (a neighbor slice tagged with the epoch that
// published it) chained to its predecessors. Writers build a vertex's
// new version in arena memory tagged Global()+1, publish it with one
// atomic pointer flip, and retire the old version's chunk reference to
// the EpochManager; the batch itself publishes by advancing the global
// epoch. Readers pin an epoch and walk each chain to the newest
// version at or below their pin, so every snapshot is a batch-boundary
// state — exactly where the mirror invariant holds.
//
// Memory comes from pooled chunks (version headers + neighbor slots)
// bump-allocated by per-worker arenas, so a warmed store ingests with
// zero allocations per edge; "reclamation" means returning a chunk to
// the pool for reuse once its grace period has elapsed. With
// EpochOptions.Poison set (tests), reclaimed chunks are overwritten
// with an out-of-range sentinel so any use-after-reclaim surfaces as a
// visibly corrupt neighbor rather than a silently stale weight.
//
// Concurrency contract: any number of concurrent snapshot readers;
// writers (batch appliers, InsertEdge/DeleteEdge callers) serialize on
// the internal writer lock, with the batch path fanning work out to
// run-partitioned workers between BeginBatch and FinishBatch. Direct
// (un-pinned) Store reads require a quiesced store, like every other
// store in this package.

import (
	"sync"
	"sync/atomic"
)

const (
	// echunkHdrs / echunkNbrs size a standard chunk: 256 version
	// headers and 8192 neighbor slots (~96 KiB). Runs whose rebuilt
	// adjacency exceeds a standard chunk get a dedicated chunk sized
	// to the vertex.
	echunkHdrs = 256
	echunkNbrs = 8192

	// emetaRing is how many per-epoch {edges, verts} records the store
	// keeps for pinned readers. A reader pinned further than this many
	// batches behind the writer falls back to an O(V) recount.
	emetaRing = 1024

	// poisonNeighbor marks reclaimed neighbor slots in poison mode:
	// far outside any test's vertex space, so a reader that reaches
	// reclaimed memory sees an impossible neighbor, not plausible data.
	poisonNeighbor = VertexID(0xdead_beef)
)

// adjVersion is one immutable published state of a vertex direction.
type adjVersion struct {
	// epoch is the batch-boundary epoch this version belongs to;
	// readers pinned below it walk to prev.
	epoch uint64
	// prev is the superseded version; immutable after publication.
	prev *adjVersion
	// ns is the adjacency; immutable once the version is published.
	ns []Neighbor
	// owner is the chunk holding this header and ns.
	owner *echunk
}

// echunk is one pooled block of version headers plus neighbor slots.
// live carries an open bias (+1 while an arena may still allocate from
// the chunk) plus one reference per unsuperseded version; whoever
// drops it to zero retires the chunk to the manager.
type echunk struct {
	pool *echunkPool
	hdrs []adjVersion
	nbrs []Neighbor
	// hused/nused are bump cursors, owned by the single arena the
	// chunk is open in; they are reset when the chunk is reclaimed.
	hused int
	nused int
	live  atomic.Int32
}

// reclaim implements reclaimable: reset cursors and return to the pool.
func (c *echunk) reclaim() { c.pool.put(c) }

// release drops one reference, retiring the chunk once unreferenced.
func (c *echunk) release(m *EpochManager) {
	if c.live.Add(-1) == 0 {
		m.Retire(c)
	}
}

// echunkPool is the shared free list chunks cycle through. Accessed
// once per chunk (never per edge), so a plain mutex is fine.
type echunkPool struct {
	mu     sync.Mutex
	free   []*echunk //sglint:guard mu
	poison bool
	allocs atomic.Int64 // chunks built fresh (pool misses)
}

// get returns a chunk whose neighbor capacity is at least need.
func (p *echunkPool) get(need int) *echunk {
	p.mu.Lock()
	// Scan from the tail: standard chunks dominate, so the scan almost
	// always ends on the first probe; oversized chunks are rare.
	for i := len(p.free) - 1; i >= 0; i-- {
		c := p.free[i]
		if len(c.nbrs) >= need {
			p.free[i] = p.free[len(p.free)-1]
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			p.mu.Unlock()
			c.live.Store(1) // open bias
			return c
		}
	}
	p.mu.Unlock()
	p.allocs.Add(1)
	size := echunkNbrs
	if need > size {
		size = need
	}
	c := &echunk{
		pool: p,
		hdrs: make([]adjVersion, echunkHdrs),
		nbrs: make([]Neighbor, size),
	}
	c.live.Store(1)
	return c
}

// put returns a reclaimed chunk to the free list, poisoning its
// contents first when enabled so stale readers cannot see plausible
// data.
func (p *echunkPool) put(c *echunk) {
	if p.poison {
		for i := range c.nbrs[:c.nused] {
			c.nbrs[i] = Neighbor{ID: poisonNeighbor, Weight: -1}
		}
		for i := range c.hdrs[:c.hused] {
			c.hdrs[i] = adjVersion{}
		}
	}
	c.hused, c.nused = 0, 0
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// earena is a writer-side bump allocator over pooled chunks. Each
// update worker owns one for the duration of a batch; chunks stay open
// across batches (successive batches' workers are ordered by the
// writer lock) so steady-state ingest allocates nothing.
type earena struct {
	pool *echunkPool
	cur  *echunk
	coal RunCoalescer // reusable run-coalescing table
}

// alloc returns a fresh version header whose ns field is a zero-length
// slice with capacity need, bump-carved from the arena's open chunk.
func (a *earena) alloc(m *EpochManager, need int) *adjVersion {
	c := a.cur
	if c == nil || c.hused == len(c.hdrs) || c.nused+need > len(c.nbrs) {
		if c != nil {
			c.release(m) // drop the open bias; live versions keep it retained
		}
		c = a.pool.get(need)
		a.cur = c
	}
	v := &c.hdrs[c.hused]
	c.hused++
	v.ns = c.nbrs[c.nused : c.nused : c.nused+need]
	c.nused += need
	v.owner = c
	v.prev = nil
	c.live.Add(1)
	return v
}

// unalloc abandons the most recent alloc (the run turned out to be a
// no-op): the header reference is dropped but the cursors stay — the
// space is recycled with the chunk.
func (a *earena) unalloc(m *EpochManager, v *adjVersion) {
	v.owner.release(m)
}

// epochVertex is one vertex's pair of version chains plus the
// latest-batch field OCA reads. The struct never moves once created
// (the vertex table stores pointers), so readers may hold it across
// table growth.
type epochVertex struct {
	out    atomic.Pointer[adjVersion]
	in     atomic.Pointer[adjVersion]
	latest atomic.Int32
}

// emeta is one ring entry of per-epoch counts, written seqlock-style:
// epoch is stored last (and checked around reads), so a reader that
// catches a slot mid-overwrite falls back to recounting.
type emeta struct {
	edges atomic.Int64
	verts atomic.Int64
	epoch atomic.Uint64
}

// EpochOptions tunes an EpochStore.
type EpochOptions struct {
	// Poison overwrites reclaimed chunks with sentinel neighbors, so a
	// reclamation bug becomes a loud, checkable corruption instead of
	// silently stale data. Test/torture mode; costs a memset per
	// reclaimed chunk.
	Poison bool
}

// EpochRunStats reports one ApplyRun's work, in the same units the
// update engines count.
type EpochRunStats struct {
	// Created/Removed are net adjacency entries added and deleted
	// (count the out pass only when summing a batch's edge delta — the
	// in pass mirrors it).
	Created, Removed int
	// Comparisons counts neighbor entries examined by duplicate and
	// delete searches; HashOps counts coalescing-table operations.
	Comparisons, HashOps int64
}

// EpochStore implements Mutable with wait-free snapshot readers. See
// the file comment for the design and the concurrency contract.
type EpochStore struct {
	mgr  *EpochManager
	pool echunkPool

	// wmu serializes writers: batch appliers hold it from BeginBatch
	// to FinishBatch, the Mutable methods take it per call.
	//
	// arenas and scratch belong to the writer section but are not
	// //sglint:guard-annotated: within a batch, arena w is accessed by
	// the run-partitioned worker goroutine that owns index w (which does
	// not itself hold wmu — BeginBatch/FinishBatch bracket it with a
	// happens-before edge), an ownership discipline the guardfield
	// analyzer cannot express. The -race torture suite enforces it
	// dynamically.
	wmu     sync.Mutex
	arenas  []earena
	scratch [1]Edge
	edges   atomic.Int64

	verts atomic.Pointer[[]*epochVertex]
	ring  [emetaRing]emeta

	snaps sync.Pool // *EpochSnapshot
}

// NewEpochStore returns an empty store pre-sized for n vertices.
func NewEpochStore(n int, opts EpochOptions) *EpochStore {
	s := &EpochStore{mgr: NewEpochManager()}
	s.pool.poison = opts.Poison
	tbl := newEpochVertices(n)
	s.verts.Store(&tbl)
	s.writeMeta(0, 0, n)
	return s
}

func newEpochVertices(n int) []*epochVertex {
	tbl := make([]*epochVertex, n)
	backing := make([]epochVertex, n)
	for i := range backing {
		backing[i].latest.Store(-1)
		tbl[i] = &backing[i]
	}
	return tbl
}

// Manager exposes the store's epoch manager (stats, tests).
func (s *EpochStore) Manager() *EpochManager { return s.mgr }

// writeMeta records epoch e's counts in the ring. Seqlock order:
// invalidate, write counts, validate.
func (s *EpochStore) writeMeta(e uint64, edges int64, verts int) {
	slot := &s.ring[e%emetaRing]
	slot.epoch.Store(^uint64(0))
	slot.edges.Store(edges)
	slot.verts.Store(int64(verts))
	slot.epoch.Store(e)
}

// readMeta returns epoch e's counts, or ok=false when the ring has
// wrapped past e (the reader is emetaRing+ batches stale).
func (s *EpochStore) readMeta(e uint64) (edges int64, verts int, ok bool) {
	slot := &s.ring[e%emetaRing]
	if slot.epoch.Load() != e {
		return 0, 0, false
	}
	edges = slot.edges.Load()
	verts = int(slot.verts.Load())
	if slot.epoch.Load() != e {
		return 0, 0, false
	}
	return edges, verts, true
}

// BeginBatch acquires the writer lock and prepares the store for a
// batch applied by the given number of run-partitioned workers over a
// vertex space of at least numVerts. Pair with FinishBatch.
func (s *EpochStore) BeginBatch(workers, numVerts int) {
	s.wmu.Lock()
	for len(s.arenas) < workers {
		s.arenas = append(s.arenas, earena{pool: &s.pool})
	}
	s.growLocked(numVerts)
}

// FinishBatch publishes the batch: the epoch's counts are recorded,
// the global epoch advances (the single publication point for every
// version the batch created), a reclamation pass runs, and the writer
// lock is released. Returns the published epoch, which is also the
// batch's position in the store's serialization order.
func (s *EpochStore) FinishBatch(edgeDelta int) uint64 {
	e := s.mgr.Global() + 1
	edges := s.edges.Add(int64(edgeDelta))
	s.writeMeta(e, edges, len(*s.verts.Load()))
	s.mgr.Advance()
	s.mgr.Reclaim()
	s.wmu.Unlock()
	return e
}

// growLocked extends the vertex table to at least n vertices. Old
// entries keep their epochVertex pointers, so concurrent readers see a
// stable prefix; the old table itself is garbage-collected (tables are
// not pooled — growth is rare and amortized geometric).
func (s *EpochStore) growLocked(n int) {
	old := *s.verts.Load()
	if n <= len(old) {
		return
	}
	if min := 2 * len(old); n < min {
		n = min
	}
	tbl := make([]*epochVertex, n)
	copy(tbl, old)
	backing := make([]epochVertex, n-len(old))
	for i := range backing {
		backing[i].latest.Store(-1)
		tbl[len(old)+i] = &backing[i]
	}
	s.verts.Store(&tbl)
}

// EnsureVertices grows the vertex table to at least n vertices (the
// standalone form of the growth BeginBatch performs; new vertices
// become countable at the next published epoch).
func (s *EpochStore) EnsureVertices(n int) {
	s.wmu.Lock()
	s.growLocked(n)
	s.wmu.Unlock()
}

// TouchBID records v's appearance in batch bid, returning whether v is
// unique to this batch and whether it overlaps the immediately
// preceding batch — the two counters OCA's locality measurement needs.
// Safe for concurrent workers; exactly one worker wins the counting.
func (s *EpochStore) TouchBID(v VertexID, bid int32) (unique, overlap bool) {
	ev := (*s.verts.Load())[v]
	prev := ev.latest.Load()
	if prev == bid {
		return false, false
	}
	if ev.latest.Swap(bid) == bid {
		return false, false // another worker won the race and counted
	}
	return true, prev >= 0 && prev == bid-1
}

// LatestBID returns the last batch that touched v, or -1.
func (s *EpochStore) LatestBID(v VertexID) int32 {
	tbl := *s.verts.Load()
	if int(v) >= len(tbl) {
		return -1
	}
	return tbl[v].latest.Load()
}

// ApplyRun ingests one reordered vertex run — every edge of one batch
// keyed to vertex v in the given direction — by building v's next
// version in arena memory and publishing it with one pointer flip.
// Insertions apply in batch order first, then deletions (the global
// update-ordering policy), all on the private copy, so concurrent
// pinned readers never see a mid-run state.
//
// Caller contract: BeginBatch is held, the batch's runs partition
// (vertex, direction) pairs, and worker w owns arena index w
// exclusively for this batch.
func (s *EpochStore) ApplyRun(w int, v VertexID, out bool, edges []Edge) EpochRunStats {
	ev := (*s.verts.Load())[v]
	head := &ev.out
	if !out {
		head = &ev.in
	}
	cur := head.Load()
	var curNs []Neighbor
	if cur != nil {
		curNs = cur.ns
	}

	inserts := 0
	for i := range edges {
		if !edges[i].Delete {
			inserts++
		}
	}
	a := &s.arenas[w]
	nv := a.alloc(s.mgr, len(curNs)+inserts)

	// Long runs are coalesced, O(run + degree) instead of the linear
	// path's O(run × degree): on skewed streams the hub's run covers
	// most of the batch, and that product is where a lock-free design
	// would otherwise lose to the mutex engines.
	ns, st, changed := a.coal.ApplyRun(curNs, nv.ns[:0], edges, out, ecoalMinRun)
	if !changed {
		// Pure no-op run (deletes of absent edges): keep the current
		// version and recycle the speculative allocation with its chunk.
		a.unalloc(s.mgr, nv)
		return st
	}
	nv.ns = ns
	nv.epoch = s.mgr.Global() + 1
	nv.prev = cur
	head.Store(nv)
	if cur != nil {
		cur.owner.release(s.mgr)
	}
	return st
}

// InsertEdge implements Mutable as a single-edge batch: the edge is
// applied to both directions and published under its own epoch.
func (s *EpochStore) InsertEdge(e Edge) bool {
	n := int(e.Src) + 1
	if int(e.Dst) >= n {
		n = int(e.Dst) + 1
	}
	s.BeginBatch(1, n)
	s.scratch[0] = e
	s.scratch[0].Delete = false
	st := s.ApplyRun(0, e.Src, true, s.scratch[:])
	s.ApplyRun(0, e.Dst, false, s.scratch[:])
	s.FinishBatch(st.Created)
	return st.Created > 0
}

// DeleteEdge implements Mutable; deleting an absent edge is a no-op.
func (s *EpochStore) DeleteEdge(src, dst VertexID) bool {
	tbl := *s.verts.Load()
	if int(src) >= len(tbl) || int(dst) >= len(tbl) {
		return false
	}
	s.BeginBatch(1, 0)
	s.scratch[0] = Edge{Src: src, Dst: dst, Delete: true}
	st := s.ApplyRun(0, src, true, s.scratch[:])
	s.ApplyRun(0, dst, false, s.scratch[:])
	s.FinishBatch(-st.Removed)
	return st.Removed > 0
}

// versionAt walks v's chain to the newest version at or below epoch.
func (s *EpochStore) versionAt(v VertexID, out bool, epoch uint64) *adjVersion {
	tbl := *s.verts.Load()
	if int(v) >= len(tbl) {
		return nil
	}
	ev := tbl[v]
	var ver *adjVersion
	if out {
		ver = ev.out.Load()
	} else {
		ver = ev.in.Load()
	}
	for ver != nil && ver.epoch > epoch {
		ver = ver.prev
	}
	return ver
}

// Direct Store interface: un-pinned reads of the latest published
// epoch. Requires a quiescent store, like every fixed store's reads;
// concurrent readers must use Snapshot.

// NumVertices implements Store.
func (s *EpochStore) NumVertices() int { return len(*s.verts.Load()) }

// NumEdges implements Store.
func (s *EpochStore) NumEdges() int { return int(s.edges.Load()) }

// OutDegree implements Store.
func (s *EpochStore) OutDegree(v VertexID) int {
	if ver := s.versionAt(v, true, s.mgr.Global()); ver != nil {
		return len(ver.ns)
	}
	return 0
}

// InDegree implements Store.
func (s *EpochStore) InDegree(v VertexID) int {
	if ver := s.versionAt(v, false, s.mgr.Global()); ver != nil {
		return len(ver.ns)
	}
	return 0
}

// ForEachOut implements Store.
func (s *EpochStore) ForEachOut(v VertexID, fn func(Neighbor)) {
	if ver := s.versionAt(v, true, s.mgr.Global()); ver != nil {
		for _, nb := range ver.ns {
			fn(nb)
		}
	}
}

// ForEachIn implements Store.
func (s *EpochStore) ForEachIn(v VertexID, fn func(Neighbor)) {
	if ver := s.versionAt(v, false, s.mgr.Global()); ver != nil {
		for _, nb := range ver.ns {
			fn(nb)
		}
	}
}

// HasEdge implements Store.
func (s *EpochStore) HasEdge(src, dst VertexID) bool {
	if ver := s.versionAt(src, true, s.mgr.Global()); ver != nil {
		for i := range ver.ns {
			if ver.ns[i].ID == dst {
				return true
			}
		}
	}
	return false
}

// EpochSnapshot is a pinned, immutable batch-boundary view of the
// store. It implements Store; reads are wait-free and safe while any
// number of batches ingest concurrently. A snapshot belongs to one
// reader goroutine; Release it promptly — it holds the grace period
// open for every chunk retired since it was pinned.
type EpochSnapshot struct {
	s     *EpochStore
	slot  int
	epoch uint64
	// edges/verts are the pinned epoch's counts; edges is -1 until
	// resolved (ring wrapped → recount, memoized).
	edges int
	verts int
}

// Snapshot pins the current epoch and returns its view. The snapshot
// header is pooled; steady-state acquisition does not allocate.
func (s *EpochStore) Snapshot() *EpochSnapshot {
	sn, _ := s.snaps.Get().(*EpochSnapshot)
	if sn == nil {
		sn = &EpochSnapshot{}
	}
	sn.s = s
	sn.slot, sn.epoch = s.mgr.Pin()
	if edges, verts, ok := s.readMeta(sn.epoch); ok {
		sn.edges, sn.verts = int(edges), verts
	} else {
		sn.edges, sn.verts = -1, len(*s.verts.Load())
	}
	return sn
}

// Release unpins the snapshot's epoch. The snapshot must not be used
// afterwards.
func (sn *EpochSnapshot) Release() {
	s := sn.s
	s.mgr.Unpin(sn.slot)
	sn.s = nil
	s.snaps.Put(sn)
}

// Epoch returns the pinned epoch (the number of batches visible).
func (sn *EpochSnapshot) Epoch() uint64 { return sn.epoch }

// NumVertices implements Store.
func (sn *EpochSnapshot) NumVertices() int { return sn.verts }

// NumEdges implements Store.
func (sn *EpochSnapshot) NumEdges() int {
	if sn.edges < 0 {
		n := 0
		for v := 0; v < sn.verts; v++ {
			if ver := sn.s.versionAt(VertexID(v), true, sn.epoch); ver != nil {
				n += len(ver.ns)
			}
		}
		sn.edges = n
	}
	return sn.edges
}

// OutDegree implements Store.
func (sn *EpochSnapshot) OutDegree(v VertexID) int {
	if ver := sn.s.versionAt(v, true, sn.epoch); ver != nil {
		return len(ver.ns)
	}
	return 0
}

// InDegree implements Store.
func (sn *EpochSnapshot) InDegree(v VertexID) int {
	if ver := sn.s.versionAt(v, false, sn.epoch); ver != nil {
		return len(ver.ns)
	}
	return 0
}

// ForEachOut implements Store.
func (sn *EpochSnapshot) ForEachOut(v VertexID, fn func(Neighbor)) {
	if ver := sn.s.versionAt(v, true, sn.epoch); ver != nil {
		for _, nb := range ver.ns {
			fn(nb)
		}
	}
}

// ForEachIn implements Store.
func (sn *EpochSnapshot) ForEachIn(v VertexID, fn func(Neighbor)) {
	if ver := sn.s.versionAt(v, false, sn.epoch); ver != nil {
		for _, nb := range ver.ns {
			fn(nb)
		}
	}
}

// HasEdge implements Store.
func (sn *EpochSnapshot) HasEdge(src, dst VertexID) bool {
	if ver := sn.s.versionAt(src, true, sn.epoch); ver != nil {
		for i := range ver.ns {
			if ver.ns[i].ID == dst {
				return true
			}
		}
	}
	return false
}

// PoolMisses reports how many chunks were built fresh rather than
// reused — the allocation-regression tests assert this stops growing
// once the store is warm.
func (s *EpochStore) PoolMisses() int64 { return s.pool.allocs.Load() }

var (
	_ Mutable = (*EpochStore)(nil)
	_ Store   = (*EpochSnapshot)(nil)
)

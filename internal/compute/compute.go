// Package compute implements the paper's four evaluated analytics:
// incremental PageRank, incremental SSSP, static PageRank, and static
// SSSP (Section 6.1). The static versions follow the GAP benchmark
// formulations; the incremental versions follow the
// GraphBolt/KickStarter-style model SAGA-Bench uses, concentrating
// computation at and around the vertices affected by an input batch.
//
// Every algorithm implements Engine, whose Update method accepts one
// or more batches: OCA (internal/oca) exploits this by handing two
// high-overlap batches to a single computation round.
package compute

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
)

// Metrics describes one computation round.
//
// EdgesTraversed is updated with sync/atomic by the parallel kernels,
// so it leads the struct: a 64-bit atomic behind the int Iterations
// field would sit at a 4-byte offset on 32-bit targets and fault.
type Metrics struct {
	// EdgesTraversed counts adjacency entries read.
	EdgesTraversed int64
	// VerticesProcessed counts vertex activations (with multiplicity
	// across iterations).
	VerticesProcessed int64
	// Iterations is the number of frontier/sweep iterations executed.
	Iterations int
	// Time is the wall-clock duration of the round.
	Time time.Duration
}

func (m *Metrics) add(o Metrics) {
	m.Iterations += o.Iterations
	m.VerticesProcessed += o.VerticesProcessed
	//sglint:ignore atomicfield add merges rounds after their workers have joined; no concurrent writers exist here
	m.EdgesTraversed += o.EdgesTraversed
	m.Time += o.Time
}

// Engine is one streaming analytic. After the update phase ingests a
// batch into the store, Update(g, batch) refreshes the result; passing
// several batches performs one aggregated round over their combined
// modifications (the OCA granularity coarsening).
type Engine interface {
	// Name identifies the algorithm ("pr-inc", "sssp-static", ...).
	Name() string
	// Update refreshes the result after the given batches were
	// ingested into g.
	Update(g graph.Store, batches ...*graph.Batch) Metrics
	// Reset clears all algorithm state (used when replaying a stream
	// from scratch).
	Reset()
}

// orDefault is x, or def when x is not positive: the engines' rule for
// a zero field.
func orDefault[T int | float64](x, def T) T {
	if x > 0 {
		return x
	}
	return def
}

// workers returns the effective worker count for w (0 = GOMAXPROCS).
func workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// parallelVerts applies fn over the vertex list in dynamically
// scheduled chunks.
//
//sglint:pool compute workers join on wg.Wait before the round returns; a panic in an algorithm kernel must crash, not silently drop a partition
func parallelVerts(vs []graph.VertexID, nWorkers int, fn func(v graph.VertexID, w int)) {
	const chunk = 512
	if len(vs) == 0 {
		return
	}
	if nWorkers > len(vs)/chunk+1 {
		nWorkers = len(vs)/chunk + 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nWorkers; k++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(vs) {
					return
				}
				hi := lo + chunk
				if hi > len(vs) {
					hi = len(vs)
				}
				for _, v := range vs[lo:hi] {
					fn(v, wid)
				}
			}
		}(k)
	}
	wg.Wait()
}

// parallelMin is the smallest vertex list a pass fans out over. On 2
// cores, PageRank rounds whose frontier levels stayed under ~8k vertices
// ran faster inline than fanned out (goroutine start, CAS updates,
// shared mark words); levels of 30k+ ran ~1.5× faster fanned out.
const parallelMin = 16384

// each calls visit for every vertex of list, with the worker index and
// whether workers run the pass concurrently: inline below parallelMin,
// otherwise over w workers.
func each(list []graph.VertexID, w int, visit func(v graph.VertexID, wid int, shared bool)) {
	if w == 1 || len(list) < parallelMin {
		for _, v := range list {
			visit(v, 0, false)
		}
		return
	}
	parallelVerts(list, w, func(v graph.VertexID, wid int) { visit(v, wid, true) })
}

// frontier is the frontier engines' reusable worklist: a 1-bit
// membership set over the vertex space, whose bits are cleared by
// walking the level that set them, and one next-level buffer per
// worker. Warmed, it allocates nothing.
type frontier struct {
	mark []uint32
	next [][]graph.VertexID
	// busy is set from begin to end: still set at begin, a round
	// panicked mid-way and left bits and buffers behind.
	busy bool
}

// begin readies the frontier for n vertices and w workers.
func (f *frontier) begin(n, w int) {
	if f.busy {
		clear(f.mark)
		for i := range f.next {
			f.next[i] = f.next[i][:0]
		}
	}
	f.busy = true
	if k := (n + 31) / 32; k > len(f.mark) {
		f.mark = append(f.mark, make([]uint32, k-len(f.mark))...)
	}
	if len(f.next) != w {
		f.next = make([][]graph.VertexID, w)
	}
}

func (f *frontier) end() { f.busy = false }

// add sets v's bit and reports whether it was clear, then also appends
// v to worker wid's next level unless wid is -1. shared selects a CAS.
func (f *frontier) add(v graph.VertexID, wid int, shared bool) bool {
	word, bit := &f.mark[v>>5], uint32(1)<<(v&31)
	for shared {
		old := atomic.LoadUint32(word)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(word, old, old|bit) {
			break
		}
	}
	if !shared {
		if *word&bit != 0 {
			return false
		}
		*word |= bit
	}
	if wid >= 0 {
		f.next[wid] = append(f.next[wid], v)
	}
	return true
}

// clear clears the bits of vs.
func (f *frontier) clear(vs []graph.VertexID) {
	for _, v := range vs {
		f.mark[v>>5] &^= 1 << (v & 31)
	}
}

// take appends every worker's next level to dst, emptying them.
func (f *frontier) take(dst []graph.VertexID) []graph.VertexID {
	for i, l := range f.next {
		dst = append(dst, l...)
		f.next[i] = l[:0]
	}
	return dst
}

// levels visits successive levels from front, each gathered into the
// last one's buffer, until a level is empty or maxIter levels ran. It
// returns the buffer and whether the frontier emptied.
func (f *frontier) levels(front []graph.VertexID, w, maxIter int, m *Metrics, visit func(graph.VertexID, int, bool)) ([]graph.VertexID, bool) {
	for iter := 0; len(front) > 0; iter++ {
		f.clear(front)
		if iter == maxIter {
			return front[:0], false
		}
		m.Iterations++
		m.VerticesProcessed += int64(len(front))
		each(front, w, visit)
		front = f.take(front[:0])
	}
	return front, true
}

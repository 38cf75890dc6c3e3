package compute

import (
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
)

// BFS maintains breadth-first hop distances from a source vertex.
// Edge weights are ignored (every edge counts one hop), making it the
// unweighted specialization of SSSP with the same incremental
// structure: insertions only shorten hop counts, so the incremental
// engine relaxes inserted edges and propagates; deletions use the
// same KickStarter-style trim-and-repair as SSSP (see trim.go), with
// SimpleDeletes forcing the recompute fallback.
type BFS struct {
	// Source is the root vertex.
	Source graph.VertexID
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// MaxIter caps propagation rounds; 0 means 10000.
	MaxIter int
	// Incremental selects the insertion-driven incremental model.
	Incremental bool
	// SimpleDeletes forces full recomputation on deletion batches
	// instead of trim-and-repair.
	SimpleDeletes bool

	// level holds hop counts (int32), -1 meaning unreached.
	level []atomic.Int32
	front frontier
}

// unreached marks vertices with no path from the source.
const unreached = int32(-1)

// Name implements Engine.
func (b *BFS) Name() string {
	if b.Incremental {
		return "bfs-inc"
	}
	return "bfs-static"
}

// Reset implements Engine.
func (b *BFS) Reset() { b.level = nil }

// Level returns v's hop distance from the source, or -1 if
// unreached (or out of range).
func (b *BFS) Level(v graph.VertexID) int32 {
	if int(v) >= len(b.level) {
		return unreached
	}
	return b.level[v].Load()
}

// Levels returns a copy of the hop-distance vector.
func (b *BFS) Levels() []int32 {
	out := make([]int32, len(b.level))
	for i := range b.level {
		out[i] = b.level[i].Load()
	}
	return out
}

func (b *BFS) ensure(n int) {
	for len(b.level) < n {
		b.level = append(b.level, atomic.Int32{})
		b.level[len(b.level)-1].Store(unreached)
	}
	if int(b.Source) < len(b.level) {
		b.level[b.Source].CompareAndSwap(unreached, 0)
	}
}

// relaxMin lowers level[v] to x if smaller; reports success.
func (b *BFS) relaxMin(v graph.VertexID, x int32) bool {
	for {
		cur := b.level[v].Load()
		if cur != unreached && x >= cur {
			return false
		}
		if b.level[v].CompareAndSwap(cur, x) {
			return true
		}
	}
}

// Update implements Engine.
func (b *BFS) Update(g graph.Store, batches ...*graph.Batch) Metrics {
	start := time.Now()
	var m Metrics
	n := g.NumVertices()
	if n == 0 {
		return m
	}
	b.ensure(n)

	if !b.Incremental || len(batches) == 0 || (hasDeletes(batches) && b.SimpleDeletes) {
		b.recompute(g, &m)
	} else {
		var deleted []graph.Edge
		deletedSet := make(map[[2]graph.VertexID]bool)
		for _, batch := range batches {
			for _, e := range batch.Edges {
				if e.Delete {
					deleted = append(deleted, e)
					deletedSet[[2]graph.VertexID{e.Src, e.Dst}] = true
				}
			}
		}
		var frontier []graph.VertexID
		seen := make(map[graph.VertexID]struct{})
		for _, batch := range batches {
			for _, e := range batch.Edges {
				if e.Delete || deletedSet[[2]graph.VertexID{e.Src, e.Dst}] {
					continue
				}
				if lv := b.level[e.Src].Load(); lv != unreached {
					if b.relaxMin(e.Dst, lv+1) {
						if _, ok := seen[e.Dst]; !ok {
							seen[e.Dst] = struct{}{}
							frontier = append(frontier, e.Dst)
						}
					}
				}
			}
		}
		b.propagate(g, frontier, &m)
		if len(deleted) > 0 {
			b.trimAndRepair(g, deleted, &m)
		}
	}
	m.Time = time.Since(start)
	return m
}

func (b *BFS) recompute(g graph.Store, m *Metrics) {
	for i := range b.level {
		b.level[i].Store(unreached)
	}
	if int(b.Source) >= len(b.level) {
		return
	}
	b.level[b.Source].Store(0)
	b.propagate(g, []graph.VertexID{b.Source}, m)
}

func (b *BFS) propagate(g graph.Store, frontier []graph.VertexID, m *Metrics) {
	w := workers(b.Workers)
	b.front.begin(len(b.level), w)
	b.front.levels(frontier, w, orDefault(b.MaxIter, 10000), m, func(v graph.VertexID, wid int, shared bool) {
		lv := b.level[v].Load()
		local := int64(0)
		g.ForEachOut(v, func(nb graph.Neighbor) {
			local++
			if b.relaxMin(nb.ID, lv+1) {
				b.front.add(nb.ID, wid, shared)
			}
		})
		atomic.AddInt64(&m.EdgesTraversed, local)
	})
	b.front.end()
}

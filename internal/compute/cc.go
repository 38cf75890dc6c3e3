package compute

import (
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
)

// CC maintains connected components (treating edges as undirected,
// the usual convention for streaming CC). Labels are minimum vertex
// IDs per component.
//
// The incremental engine exploits that insertions only merge
// components: each inserted edge unions its endpoints' labels and the
// smaller label propagates. Deletions can split components, which
// label propagation cannot detect, so batches with deletions trigger
// recomputation.
type CC struct {
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// MaxIter caps propagation rounds; 0 means 10000.
	MaxIter int
	// Incremental selects the merge-only incremental model.
	Incremental bool

	// label holds component labels (uint32), accessed atomically.
	label []atomic.Uint32
	front frontier
}

// Name implements Engine.
func (c *CC) Name() string {
	if c.Incremental {
		return "cc-inc"
	}
	return "cc-static"
}

// Reset implements Engine.
func (c *CC) Reset() { c.label = nil }

// Label returns v's component label (its own ID while isolated).
func (c *CC) Label(v graph.VertexID) graph.VertexID {
	if int(v) >= len(c.label) {
		return v
	}
	return graph.VertexID(c.label[v].Load())
}

// Labels returns a copy of the label vector.
func (c *CC) Labels() []graph.VertexID {
	out := make([]graph.VertexID, len(c.label))
	for i := range c.label {
		out[i] = graph.VertexID(c.label[i].Load())
	}
	return out
}

// Components returns the number of distinct labels among vertices
// that have at least one edge, plus isolated vertices counted apart.
func (c *CC) Components(g graph.Store) int {
	seen := make(map[uint32]struct{})
	for v := 0; v < len(c.label); v++ {
		if g.OutDegree(graph.VertexID(v)) > 0 || g.InDegree(graph.VertexID(v)) > 0 {
			seen[c.label[v].Load()] = struct{}{}
		}
	}
	return len(seen)
}

func (c *CC) ensure(n int) {
	for len(c.label) < n {
		c.label = append(c.label, atomic.Uint32{})
		c.label[len(c.label)-1].Store(uint32(len(c.label) - 1))
	}
}

// relaxMin lowers label[v] to x if smaller; reports success.
func (c *CC) relaxMin(v graph.VertexID, x uint32) bool {
	for {
		cur := c.label[v].Load()
		if x >= cur {
			return false
		}
		if c.label[v].CompareAndSwap(cur, x) {
			return true
		}
	}
}

// Update implements Engine.
func (c *CC) Update(g graph.Store, batches ...*graph.Batch) Metrics {
	start := time.Now()
	var m Metrics
	n := g.NumVertices()
	if n == 0 {
		return m
	}
	c.ensure(n)

	if !c.Incremental || hasDeletes(batches) || len(batches) == 0 {
		c.recompute(g, &m)
	} else {
		var frontier []graph.VertexID
		seen := make(map[graph.VertexID]struct{})
		push := func(v graph.VertexID) {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				frontier = append(frontier, v)
			}
		}
		for _, batch := range batches {
			for _, e := range batch.Edges {
				ls, ld := c.label[e.Src].Load(), c.label[e.Dst].Load()
				if ls < ld {
					if c.relaxMin(e.Dst, ls) {
						push(e.Dst)
					}
				} else if ld < ls {
					if c.relaxMin(e.Src, ld) {
						push(e.Src)
					}
				}
			}
		}
		c.propagate(g, frontier, &m)
	}
	m.Time = time.Since(start)
	return m
}

func (c *CC) recompute(g graph.Store, m *Metrics) {
	all := make([]graph.VertexID, len(c.label))
	for i := range c.label {
		c.label[i].Store(uint32(i))
		all[i] = graph.VertexID(i)
	}
	c.propagate(g, all, m)
}

// propagate spreads minimum labels across both edge directions until
// no label changes.
func (c *CC) propagate(g graph.Store, frontier []graph.VertexID, m *Metrics) {
	w := workers(c.Workers)
	c.front.begin(len(c.label), w)
	c.front.levels(frontier, w, orDefault(c.MaxIter, 10000), m, func(v graph.VertexID, wid int, shared bool) {
		lv := c.label[v].Load()
		local := int64(0)
		visit := func(nb graph.Neighbor) {
			local++
			if c.relaxMin(nb.ID, lv) {
				c.front.add(nb.ID, wid, shared)
			} else if other := c.label[nb.ID].Load(); other < lv {
				// The neighbor has the smaller label: pull it.
				if c.relaxMin(v, other) {
					lv = c.label[v].Load()
					c.front.add(v, wid, shared)
				}
			}
		}
		g.ForEachOut(v, visit)
		g.ForEachIn(v, visit)
		atomic.AddInt64(&m.EdgesTraversed, local)
	})
	c.front.end()
}

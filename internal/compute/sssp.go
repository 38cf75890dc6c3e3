package compute

import (
	"math"
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
)

// SSSP computes single-source shortest paths over positive edge
// weights with a frontier-relaxation scheme (the parallel Bellman-Ford
// family GAP's delta-stepping belongs to).
//
// The static engine recomputes from scratch each round. The
// incremental engine exploits that edge insertions can only shorten
// distances: it relaxes the inserted edges and propagates, which is
// exact for insertion-only streams. Deletions are handled with
// KickStarter-style trim-and-repair (trim.go): the region whose
// values depended on deleted edges is invalidated and re-relaxed from
// its safe boundary. SimpleDeletes restores the naive
// recompute-on-delete fallback.
//
// Weight-update caveat: re-inserting an existing edge with a LARGER
// weight breaks relaxation monotonicity and is not detected (the
// engine would keep the stale smaller distance). Model a weight
// increase as a deletion plus an insertion in the same batch — the
// trim-and-repair path handles that exactly.
type SSSP struct {
	// Source is the source vertex.
	Source graph.VertexID
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// MaxIter caps relaxation rounds; 0 means 10000.
	MaxIter int
	// Incremental selects the insertion-driven incremental model.
	Incremental bool
	// SimpleDeletes makes deletion batches fall back to a full
	// recomputation instead of the KickStarter-style trim-and-repair
	// (trim.go). Mainly for testing and comparison.
	SimpleDeletes bool

	// dist holds float64 bits accessed atomically (relaxations race
	// benignly through CAS-min).
	dist  []uint64
	front frontier
}

// Name implements Engine.
func (s *SSSP) Name() string {
	if s.Incremental {
		return "sssp-inc"
	}
	return "sssp-static"
}

// Reset implements Engine.
func (s *SSSP) Reset() { s.dist = nil }

// Dist returns vertex v's current distance (+Inf if unreached).
func (s *SSSP) Dist(v graph.VertexID) float64 {
	if int(v) >= len(s.dist) {
		return math.Inf(1)
	}
	return math.Float64frombits(atomic.LoadUint64(&s.dist[v]))
}

// Distances returns a copy of the distance vector.
func (s *SSSP) Distances() []float64 {
	out := make([]float64, len(s.dist))
	for i := range s.dist {
		out[i] = math.Float64frombits(atomic.LoadUint64(&s.dist[i]))
	}
	return out
}

func (s *SSSP) ensure(n int) {
	inf := math.Float64bits(math.Inf(1))
	for len(s.dist) < n {
		s.dist = append(s.dist, inf)
	}
	if int(s.Source) < len(s.dist) {
		if s.get(s.Source) > 0 {
			s.set(s.Source, 0)
		}
	}
}

func (s *SSSP) get(v graph.VertexID) float64 {
	return math.Float64frombits(atomic.LoadUint64(&s.dist[v]))
}

func (s *SSSP) set(v graph.VertexID, x float64) {
	atomic.StoreUint64(&s.dist[v], math.Float64bits(x))
}

// relaxMin lowers dist[v] to x if x is smaller, via CAS. Returns true
// if it lowered the value.
func (s *SSSP) relaxMin(v graph.VertexID, x float64) bool {
	for {
		curBits := atomic.LoadUint64(&s.dist[v])
		cur := math.Float64frombits(curBits)
		if x >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(&s.dist[v], curBits, math.Float64bits(x)) {
			return true
		}
	}
}

// Update implements Engine.
func (s *SSSP) Update(g graph.Store, batches ...*graph.Batch) Metrics {
	start := time.Now()
	var m Metrics
	n := g.NumVertices()
	if n == 0 {
		return m
	}
	s.ensure(n)

	if !s.Incremental || len(batches) == 0 || (hasDeletes(batches) && s.SimpleDeletes) {
		s.recompute(g, &m)
	} else {
		// Batch semantics apply all insertions before all deletions,
		// so an edge both inserted and deleted in the batch is gone:
		// its insertion must not relax anything.
		var deleted []graph.Edge
		deletedSet := make(map[[2]graph.VertexID]bool)
		for _, b := range batches {
			for _, e := range b.Edges {
				if e.Delete {
					deleted = append(deleted, e)
					deletedSet[[2]graph.VertexID{e.Src, e.Dst}] = true
				}
			}
		}

		// Seed: endpoints of inserted edges whose distance might
		// improve through the new edge.
		var frontier []graph.VertexID
		seen := make(map[graph.VertexID]struct{})
		for _, b := range batches {
			for _, e := range b.Edges {
				if e.Delete || deletedSet[[2]graph.VertexID{e.Src, e.Dst}] {
					continue
				}
				if s.get(e.Src) < math.Inf(1) {
					if s.relaxMin(e.Dst, s.get(e.Src)+float64(e.Weight)) {
						if _, ok := seen[e.Dst]; !ok {
							seen[e.Dst] = struct{}{}
							frontier = append(frontier, e.Dst)
						}
					}
				}
			}
		}
		s.propagate(g, frontier, &m)
		if len(deleted) > 0 {
			s.trimAndRepair(g, deleted, &m)
		}
	}
	m.Time = time.Since(start)
	return m
}

func hasDeletes(batches []*graph.Batch) bool {
	for _, b := range batches {
		for _, e := range b.Edges {
			if e.Delete {
				return true
			}
		}
	}
	return false
}

// recompute runs SSSP from scratch on the snapshot.
func (s *SSSP) recompute(g graph.Store, m *Metrics) {
	inf := math.Float64bits(math.Inf(1))
	for i := range s.dist {
		atomic.StoreUint64(&s.dist[i], inf)
	}
	if int(s.Source) >= len(s.dist) {
		return
	}
	s.set(s.Source, 0)
	s.propagate(g, []graph.VertexID{s.Source}, m)
}

// propagate runs frontier relaxation rounds until no distance changes.
func (s *SSSP) propagate(g graph.Store, frontier []graph.VertexID, m *Metrics) {
	w := workers(s.Workers)
	s.front.begin(len(s.dist), w)
	s.front.levels(frontier, w, orDefault(s.MaxIter, 10000), m, func(v graph.VertexID, wid int, shared bool) {
		dv := s.get(v)
		local := int64(0)
		g.ForEachOut(v, func(nb graph.Neighbor) {
			local++
			if s.relaxMin(nb.ID, dv+float64(nb.Weight)) {
				s.front.add(nb.ID, wid, shared)
			}
		})
		atomic.AddInt64(&m.EdgesTraversed, local)
	})
	s.front.end()
}

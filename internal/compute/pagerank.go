package compute

import (
	"math"
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
)

// PageRank computes damped PageRank with the pull formulation the GAP
// benchmark uses:
//
//	rank[v] = (1-d)/N + d * Σ_{u ∈ in(v)} rank[u] / outDeg(u)
//
// Both engines keep two float32 words per vertex (DESIGN.md S9), on the
// unnormalised scale x = N·rank: pub[u] = x[u]/outDeg(u), the
// contribution u last published, and agg[v] = Σ_{u ∈ in(v)} pub[u], so
// x[v] = (1-d) + d·agg[v]. Rank divides by N at read time, so growing
// the vertex space costs nothing. The static engine sweeps: publish
// every vertex, re-pull every aggregate, until converged. The
// incremental engine is GraphBolt-style dependency-driven refinement:
// it republishes each batch source at its new out-degree, pushing the
// difference to its out-neighbours; re-pulls each batch destination
// exactly; then propagates, publishing and pushing a vertex's change
// only when its contribution moved by more than Tol.
type PageRank struct {
	// Damping is the damping factor d; 0 means the standard 0.85.
	Damping float64
	// Tol is the relative change a round may leave unpropagated: the
	// incremental engine publishes a contribution only when it moved
	// by more than Tol of its published value, and a sweep stops when
	// its summed change is within Tol of the summed value. A change
	// below Tol stays in x − pub·outDeg, deferred rather than lost, so
	// the ranks end within ErrorBound of the fixpoint. 0 means 1e-3
	// for incremental propagation and 1e-6 for a sweep.
	Tol float64
	// MaxIter caps a sweep's iterations or a round's propagation
	// depth; 0 means 100. A round cut short is redone as a sweep.
	MaxIter int
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Incremental selects the frontier-based incremental model.
	Incremental bool
	// Weighted distributes rank proportionally to edge weights
	// instead of uniformly across out-edges.
	Weighted bool

	// agg holds float32 bits, atomic while workers share a pass; pub
	// is written only by its vertex's worker. n is N.
	agg []uint32
	pub []float32
	n   int
	// dirty is set while a round runs, and stays set after one that
	// panicked or hit MaxIter, so the next Update rebuilds with a sweep.
	dirty       bool
	f           frontier
	srcs, front []graph.VertexID
	ws          []*prWorker
	// visit, bound once, runs kernel on the calling worker.
	visit  func(graph.VertexID, int, bool)
	kernel func(*prWorker, graph.VertexID)

	// The round's inputs, read by the kernels.
	g          graph.Store
	adj        *graph.AdjacencyStore
	damp, base float64
	tol        float32
}

// prWorker is one worker's reusable round state: nothing a warmed round
// does allocates.
type prWorker struct {
	p  *PageRank
	id int
	// shared is set while other workers run the same pass; agg and the
	// frontier marks are then accessed atomically.
	shared bool
	edges  int64
	// change and total sum |Δx| and x over a sweep.
	change, total float64
	// buf holds a neighbour list copied out of a store that does not
	// expose its slices; collect, built once, appends to it.
	buf     []graph.Neighbor
	collect func(graph.Neighbor)
}

// Name implements Engine.
func (p *PageRank) Name() string {
	if p.Incremental {
		return "pr-inc"
	}
	return "pr-static"
}

// Reset implements Engine.
func (p *PageRank) Reset() {
	p.agg, p.pub, p.n, p.dirty = nil, nil, 0, false
}

// Ranks returns a copy of the current rank vector. Neither it nor Rank
// may run concurrently with Update.
func (p *PageRank) Ranks() []float64 {
	out := make([]float64, p.n)
	for v := range out {
		out[v] = p.Rank(graph.VertexID(v))
	}
	return out
}

// Rank returns vertex v's current rank (0 if out of range).
func (p *PageRank) Rank(v graph.VertexID) float64 {
	if int(v) >= p.n {
		return 0
	}
	d := orDefault(p.Damping, 0.85)
	return (1 - d + d*float64(math.Float32frombits(p.agg[v]))) / float64(p.n)
}

// ErrorBound is what a completed round guarantees at the engine's
// tolerance: the ranks' L1 distance from the fixpoint is at most
// d·Tol/((1−d)(1−Tol)) times the summed rank of the vertices with
// out-edges. Float32 state adds rounding of order 1e-7 per value.
func (p *PageRank) ErrorBound() float64 {
	d, tol := orDefault(p.Damping, 0.85), orDefault(p.Tol, 1e-6)
	if p.Incremental {
		tol = orDefault(p.Tol, 1e-3)
	}
	return d * tol / ((1 - d) * (1 - tol))
}

// Update implements Engine. Zero batches means "refresh everything": a
// sweep, as over a restored snapshot or after a panicked round.
func (p *PageRank) Update(g graph.Store, batches ...*graph.Batch) Metrics {
	start := time.Now()
	n := g.NumVertices()
	if n == 0 {
		return Metrics{}
	}
	if n > p.n { // new vertices have no edges yet: agg = pub = 0
		p.agg = append(p.agg, make([]uint32, n-p.n)...)
		p.pub = append(p.pub, make([]float32, n-p.n)...)
		p.n = n
	}
	k := workers(p.Workers)
	p.f.begin(n, k)
	if len(p.ws) != k {
		p.ws = make([]*prWorker, k)
		for i := range p.ws {
			w := &prWorker{p: p, id: i}
			w.collect = func(nb graph.Neighbor) { w.buf = append(w.buf, nb) }
			p.ws[i] = w
		}
		p.visit = func(v graph.VertexID, wid int, shared bool) {
			w := p.ws[wid]
			w.shared = shared
			p.kernel(w, v)
		}
	}
	for _, w := range p.ws {
		w.edges = 0
	}
	p.g, p.damp, p.tol = g, orDefault(p.Damping, 0.85), float32(orDefault(p.Tol, 1e-3))
	p.adj, _ = g.(*graph.AdjacencyStore)
	p.base = 1 - p.damp

	var m Metrics
	if p.Incremental && len(batches) > 0 && !p.dirty {
		p.dirty = true
		m, p.dirty = p.incremental(batches)
	} else {
		p.dirty = true
		m, p.dirty = p.sweep(), false
	}
	p.f.end()
	p.g, p.adj = nil, nil
	for _, w := range p.ws {
		atomic.AddInt64(&m.EdgesTraversed, w.edges)
	}
	m.Time = time.Since(start)
	return m
}

// sweep runs Jacobi iterations from the current state until the summed
// change is within Tol of the summed value. Ending on a pull leaves agg
// exactly Σ pub, the incremental engine's invariant.
func (p *PageRank) sweep() Metrics {
	var m Metrics
	all := make([]graph.VertexID, p.n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	for m.Iterations < orDefault(p.MaxIter, 100) {
		m.Iterations++
		m.VerticesProcessed += int64(p.n)
		p.run(all, (*prWorker).publish)
		for _, w := range p.ws {
			w.change, w.total = 0, 0
		}
		p.run(all, (*prWorker).pullAll)
		change, total := 0.0, 0.0
		for _, w := range p.ws {
			change, total = change+w.change, total+w.total
		}
		if change <= orDefault(p.Tol, 1e-6)*total {
			break
		}
	}
	return m
}

// incremental runs one round over the batches' modifications and
// reports whether it left the state dirty (MaxIter cut it short).
func (p *PageRank) incremental(batches []*graph.Batch) (Metrics, bool) {
	var m Metrics
	// Seeds: each batch source and destination once, deduped by mark.
	// The destinations stay marked: they open the first frontier.
	srcs, front := p.srcs[:0], p.front[:0]
	for _, b := range batches {
		for _, e := range b.Edges {
			if int(e.Src) < p.n && p.f.add(e.Src, -1, false) {
				srcs = append(srcs, e.Src)
			}
		}
	}
	p.f.clear(srcs)
	for _, b := range batches {
		for _, e := range b.Edges {
			if int(e.Dst) < p.n && p.f.add(e.Dst, -1, false) {
				front = append(front, e.Dst)
			}
		}
	}
	m.VerticesProcessed = int64(len(srcs) + len(front))
	// 1. Republish each source at its new out-degree, pushing the
	// difference to its out-neighbours. This is what carries an
	// out-degree change; a push into a destination is overwritten by 2.
	p.run(srcs, (*prWorker).republish)
	// 2. Re-pull each destination exactly: its in-list changed.
	p.run(front, (*prWorker).repull)
	// 3. Propagate from the destinations and the vertices step 1 pushed
	// into until no contribution moved by more than Tol.
	p.kernel = (*prWorker).propagate
	front, done := p.f.levels(p.f.take(front), len(p.ws), orDefault(p.MaxIter, 100), &m, p.visit)
	p.srcs, p.front = srcs, front
	return m, !done
}

// run applies kernel to every vertex of list.
func (p *PageRank) run(list []graph.VertexID, kernel func(*prWorker, graph.VertexID)) {
	p.kernel = kernel
	each(list, len(p.ws), p.visit)
}

// neighbours is v's out- or in-list: the adjacency store's own slice,
// or a copy in buf made through the Store interface.
func (w *prWorker) neighbours(v graph.VertexID, out bool) []graph.Neighbor {
	switch {
	case w.p.adj != nil && out:
		return w.p.adj.OutUnsafe(v)
	case w.p.adj != nil:
		return w.p.adj.InUnsafe(v)
	}
	w.buf = w.buf[:0]
	if out {
		w.p.g.ForEachOut(v, w.collect)
	} else {
		w.p.g.ForEachIn(v, w.collect)
	}
	return w.buf
}

// contribution is x[v] over v's out-degree, or its summed out-weight in
// weighted mode: 0 for a vertex without out-edges, which publishes
// nothing. out is v's out-list.
func (w *prWorker) contribution(v graph.VertexID, out []graph.Neighbor) float32 {
	ow := float64(len(out))
	if w.p.Weighted {
		w.edges += int64(len(out))
		ow = 0
		for _, nb := range out {
			ow += float64(nb.Weight)
		}
	}
	if ow == 0 {
		return 0
	}
	var bits uint32
	if w.shared {
		bits = atomic.LoadUint32(&w.p.agg[v])
	} else {
		bits = w.p.agg[v]
	}
	return float32((w.p.base + w.p.damp*float64(math.Float32frombits(bits))) / ow)
}

// refine recomputes v's contribution. When it moved by more than tol of
// the published value, refine publishes it and pushes the difference,
// times the edge weight, into each out-neighbour's aggregate,
// enqueueing them.
func (w *prWorker) refine(v graph.VertexID, tol float32) {
	p := w.p
	out := w.neighbours(v, true)
	c := w.contribution(v, out)
	d := c - p.pub[v]
	if math.Abs(float64(d)) <= float64(tol)*math.Abs(float64(p.pub[v])) {
		return
	}
	p.pub[v] = c
	w.edges += int64(len(out))
	for _, nb := range out {
		dw := d
		if p.Weighted {
			dw *= float32(nb.Weight)
		}
		a := &p.agg[nb.ID]
		if !w.shared {
			*a = math.Float32bits(math.Float32frombits(*a) + dw)
		} else {
			for old := atomic.LoadUint32(a); !atomic.CompareAndSwapUint32(a, old, math.Float32bits(math.Float32frombits(old)+dw)); {
				old = atomic.LoadUint32(a)
			}
		}
		p.f.add(nb.ID, w.id, w.shared)
	}
}

// pull is the exact aggregate of v's in-list: the kernel of step 2 and
// of a sweep.
func (w *prWorker) pull(v graph.VertexID) float64 {
	in := w.neighbours(v, false)
	w.edges += int64(len(in))
	s := 0.0
	for _, nb := range in {
		c := float64(w.p.pub[nb.ID])
		if w.p.Weighted {
			c *= float64(nb.Weight)
		}
		s += c
	}
	return s
}

func (w *prWorker) republish(v graph.VertexID) { w.refine(v, 0) }
func (w *prWorker) propagate(v graph.VertexID) { w.refine(v, w.p.tol) }

func (w *prWorker) repull(v graph.VertexID) {
	w.p.agg[v] = math.Float32bits(float32(w.pull(v)))
}

func (w *prWorker) publish(v graph.VertexID) {
	w.p.pub[v] = w.contribution(v, w.neighbours(v, true))
}

func (w *prWorker) pullAll(v graph.VertexID) {
	p := w.p
	a := w.pull(v)
	w.change += p.damp * math.Abs(a-float64(math.Float32frombits(p.agg[v])))
	w.total += p.base + p.damp*a
	p.agg[v] = math.Float32bits(float32(a))
}

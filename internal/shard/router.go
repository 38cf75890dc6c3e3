package shard

import (
	"fmt"
	"sync"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/pipeline"
)

// Config configures a Router.
type Config struct {
	// Shards is the pipeline-instance count (>= 1).
	Shards int
	// Replicas is the virtual ring points per shard; 0 means
	// DefaultReplicas.
	Replicas int
	// Vertices pre-sizes every shard's vertex space. All shards share
	// one vertex-ID space so merged analytics (and PageRank's 1/N
	// term) match the single-node reference exactly.
	Vertices int
	// Pipeline is the per-shard runner template. Compute must be nil
	// (the shards only ingest; analytics run once, over the merged
	// View) and Epoch must be false (repartitioning migrates state
	// through the adjacency snapshot format).
	Pipeline pipeline.Config
	// PerShard, when non-nil, customizes one shard's config from the
	// template — e.g. a fault injector or shed ladder on a single
	// shard for differential tests.
	PerShard func(shard int, cfg pipeline.Config) pipeline.Config
	// Repartition tunes the dynamic repartitioner; the zero value
	// enables it with defaults, Policy{Disabled: true} turns it off.
	Repartition Policy
	// Seed, when non-nil, is an initial graph (a restored snapshot):
	// each shard starts with the seed edges incident to its owned
	// vertices.
	Seed *graph.AdjacencyStore
}

// Outcome reports one shard's part of an Apply.
type Outcome struct {
	// Shard is the shard index; Edges how many edge ops were routed
	// to it (0 means the shard was not involved in the batch).
	Shard int
	Edges int
	// Applied reports whether the sub-batch was ingested; Err carries
	// the recovered panic when it was not.
	Applied bool
	Err     error
}

// Result aggregates one routed batch across shards.
type Result struct {
	BatchID int
	// PerShard has one entry per shard, in shard order.
	PerShard []Outcome
	// Update is the slowest shard's update wall time (the fan-out is
	// concurrent, so the batch costs its critical path, not the sum).
	Update time.Duration
	// Reordered/Instrumented report whether any shard's ABR reordered
	// or instrumented its sub-batch; CAD is the maximum across
	// instrumented shards.
	Reordered    bool
	Instrumented bool
	CAD          float64
	// Locks and Comparisons sum the per-shard engine counters.
	Locks       int64
	Comparisons int64
	// UniqueVerts and OverlapVerts sum the shards' OCA counters. A
	// vertex updated on two shards (a mirrored endpoint) counts on
	// both, so their ratio estimates the single-node locality.
	UniqueVerts  int64
	OverlapVerts int64
	// Repartitioned reports that this batch's statistics triggered a
	// hot-range migration after the batch applied.
	Repartitioned bool
}

// shardState is one pipeline instance plus its routing counters. The
// counters are guarded by the owning Router's mu (written in Apply's
// single-threaded aggregation phase, copied by Report); the guardfield
// annotation cannot name a mutex across structs, so keep every access
// under r.mu by hand.
type shardState struct {
	runner  *pipeline.Runner
	batches int
	edges   int64
	panics  int
}

//sglint:pool fan-out workers join on wg.Wait before aggregation; per-shard panics are recovered inside ProcessBatchIsolated and surfaced as per-shard errors

// Router splits batches across per-shard pipelines and aggregates
// their results. Apply follows the repository's sequential execution
// contract (one batch in flight, reads between batches); Report,
// Audits and MetricsSnapshot are safe to call from any goroutine.
type Router struct {
	cfg      Config
	ring     *Ring
	shards   []*shardState
	pcfgs    []pipeline.Config // per-shard configs, kept for rebuilds
	repart   *repartitioner
	pressure func() float64

	// mu guards the aggregated counters, the decision-audit log, the
	// retired-runner metrics and the cached edge count; everything
	// else follows the sequential contract.
	mu      sync.Mutex
	audits  []obs.DecisionAudit     //sglint:guard mu
	moves   int                     //sglint:guard mu
	retired []pipeline.BatchMetrics //sglint:guard mu
	// cachedEdges memoizes the deduplicated edge count (NumEdges is
	// an O(vertices) sweep); edgesDirty invalidates it on writes.
	cachedEdges int  //sglint:guard mu
	edgesDirty  bool //sglint:guard mu
}

// New builds a router and its per-shard pipelines.
func New(cfg Config) *Router {
	if cfg.Shards < 1 {
		panic("shard: Config.Shards must be >= 1")
	}
	if cfg.Pipeline.Compute != nil {
		panic("shard: per-shard Compute must be nil; analytics run over the merged View")
	}
	if cfg.Pipeline.Epoch {
		panic("shard: per-shard Epoch mode is not supported; repartitioning migrates adjacency snapshots")
	}
	r := &Router{
		cfg:        cfg,
		ring:       NewRing(cfg.Shards, cfg.Replicas),
		shards:     make([]*shardState, cfg.Shards),
		pcfgs:      make([]pipeline.Config, cfg.Shards),
		repart:     newRepartitioner(cfg.Repartition),
		edgesDirty: true,
	}
	// A seed's vertex space carries over whole, as it does to one node.
	verts := cfg.Vertices
	if cfg.Seed != nil && cfg.Seed.NumVertices() > verts {
		verts = cfg.Seed.NumVertices()
	}
	for i := range r.shards {
		pc := cfg.Pipeline
		if cfg.PerShard != nil {
			pc = cfg.PerShard(i, pc)
		}
		r.pcfgs[i] = pc
		st := graph.NewAdjacencyStore(verts)
		if cfg.Seed != nil {
			seedShard(st, cfg.Seed, r.ring, i)
		}
		r.shards[i] = &shardState{runner: pipeline.NewRunnerWithStore(pc, st)}
	}
	return r
}

// seedShard copies the seed edges incident to shard i's owned
// vertices into st (the mirroring rule, applied to a restored graph).
func seedShard(st *graph.AdjacencyStore, seed *graph.AdjacencyStore, ring *Ring, i int) {
	for v := 0; v < seed.NumVertices(); v++ {
		src := graph.VertexID(v)
		seed.ForEachOut(src, func(n graph.Neighbor) {
			if ring.Owner(src) == i || ring.Owner(n.ID) == i {
				st.InsertEdge(graph.Edge{Src: src, Dst: n.ID, Weight: n.Weight})
			}
		})
	}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.cfg.Shards }

// Owner returns the shard currently owning vertex v.
func (r *Router) Owner(v graph.VertexID) int { return r.ring.Owner(v) }

// ShardStore returns shard i's adjacency store (owned vertices carry
// complete adjacency; mirrored vertices only the edges shared with
// this shard). Sequential contract: read between batches.
func (r *Router) ShardStore(i int) *graph.AdjacencyStore { return r.shards[i].runner.Store() }

// SetPressure attaches the load-shed pressure source to every shard's
// runner (and to runners rebuilt by future migrations).
func (r *Router) SetPressure(f func() float64) {
	r.pressure = f
	for _, s := range r.shards {
		s.runner.SetPressure(f)
	}
}

// Split partitions a batch into per-shard edge slices under the
// mirroring rule: an edge goes to the owner of its source and, when
// different, the owner of its destination, preserving relative order
// within each slice. Slices index by shard; empty slices mean the
// shard is not involved.
func (r *Router) Split(b *graph.Batch) [][]graph.Edge {
	parts := make([][]graph.Edge, r.cfg.Shards)
	for _, e := range b.Edges {
		so := r.ring.Owner(e.Src)
		parts[so] = append(parts[so], e)
		if do := r.ring.Owner(e.Dst); do != so {
			parts[do] = append(parts[do], e)
		}
	}
	return parts
}

// Apply routes one batch: split, concurrent fan-out behind each
// shard's panic-isolation boundary, aggregate. Shards that panic
// leave their sub-batch unapplied (pre-mutation isolation) while the
// others proceed; because batch re-application is idempotent under
// the batch semantics contract, a caller may retry the whole batch.
// The returned error is the first failing shard's; Result.PerShard
// records exactly which shards accepted.
func (r *Router) Apply(b *graph.Batch) (Result, error) {
	// Every shard's vertex space grows with the whole batch, as one
	// node's store does. Grown by its own sub-batch alone (or not at
	// all, when the batch skips it), a shard's geometric growth would
	// end on a different size, and the merged vertex space with it.
	n := int(b.MaxVertex()) + 1
	for _, s := range r.shards {
		s.runner.Store().EnsureVertices(n)
	}
	parts := r.Split(b)
	res := Result{BatchID: b.ID, PerShard: make([]Outcome, r.cfg.Shards)}
	type reply struct {
		bm  pipeline.BatchMetrics
		err error
	}
	replies := make([]reply, r.cfg.Shards)
	var wg sync.WaitGroup
	for i := range r.shards {
		res.PerShard[i] = Outcome{Shard: i, Edges: len(parts[i])}
		if len(parts[i]) == 0 {
			res.PerShard[i].Applied = true // vacuously: nothing to apply
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sb := &graph.Batch{ID: b.ID, TraceID: b.TraceID, Edges: parts[i]}
			replies[i].bm, replies[i].err = r.shards[i].runner.ProcessBatchIsolated(sb)
		}(i)
	}
	wg.Wait()

	var firstErr error
	for i := range r.shards {
		if len(parts[i]) == 0 {
			continue
		}
		if err := replies[i].err; err != nil {
			res.PerShard[i].Err = err
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
			r.mu.Lock()
			r.shards[i].panics++
			r.mu.Unlock()
			continue
		}
		res.PerShard[i].Applied = true
		bm := replies[i].bm
		r.mu.Lock()
		r.shards[i].batches++
		r.shards[i].edges += int64(len(parts[i]))
		r.mu.Unlock()
		if bm.Update > res.Update {
			res.Update = bm.Update
		}
		res.Reordered = res.Reordered || bm.Reordered
		if bm.ABRActive {
			res.Instrumented = true
			if bm.CAD > res.CAD {
				res.CAD = bm.CAD
			}
		}
		res.Locks += bm.Stats.Locks
		res.Comparisons += bm.Stats.Comparisons
		res.UniqueVerts += bm.Stats.UniqueVerts
		res.OverlapVerts += bm.Stats.OverlapVerts
	}
	r.mu.Lock()
	r.edgesDirty = true
	r.mu.Unlock()

	// Feed the repartitioner the whole batch's profile; a triggered
	// migration runs here, after the fan-out has fully drained, so the
	// affected runners are quiescent. Skip on a partial failure: the
	// caller will retry the batch and statistics should reflect
	// applied work.
	if firstErr == nil {
		res.Repartitioned = r.repartitionStep(b)
	}
	return res, firstErr
}

// Flush drains every shard behind the panic isolation boundary,
// returning the first failure.
func (r *Router) Flush() error {
	var firstErr error
	for i, s := range r.shards {
		if err := s.runner.FinishIsolated(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// MetricsSnapshot merges the per-shard run metrics (including runners
// retired by migrations) into one RunMetrics. Per-batch entries
// appear once per involved shard — durations sum engine work across
// shards, the way RunMetrics sums work across batches.
func (r *Router) MetricsSnapshot() pipeline.RunMetrics {
	out := pipeline.RunMetrics{Policy: r.cfg.Pipeline.Policy}
	r.mu.Lock()
	out.Batches = append(out.Batches, r.retired...)
	r.mu.Unlock()
	for _, s := range r.shards {
		m := s.runner.MetricsSnapshot()
		out.Batches = append(out.Batches, m.Batches...)
	}
	return out
}

// NumVertices returns the merged vertex-space size.
func (r *Router) NumVertices() int {
	n := 0
	for _, s := range r.shards {
		if sn := s.runner.Store().NumVertices(); sn > n {
			n = sn
		}
	}
	return n
}

// NumEdges returns the deduplicated directed edge count: each edge is
// counted once, at the owner of its source (whose out-adjacency is
// complete). Cached between writes; the sweep is O(vertices).
func (r *Router) NumEdges() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.edgesDirty {
		return r.cachedEdges
	}
	total := 0
	for i, s := range r.shards {
		st := s.runner.Store()
		n := st.NumVertices()
		for v := 0; v < n; v++ {
			if r.ring.Owner(graph.VertexID(v)) == i {
				total += st.OutDegree(graph.VertexID(v))
			}
		}
	}
	r.cachedEdges, r.edgesDirty = total, false
	return total
}

// ShardInfo is one shard's census entry.
type ShardInfo struct {
	Shard int `json:"shard"`
	// Batches/Edges count routed sub-batches and edge ops; Panics the
	// recovered per-shard failures.
	Batches int   `json:"batches"`
	Edges   int64 `json:"edges"`
	Panics  int   `json:"panics"`
	// OwnedVertices/OwnedEdges census the shard's current ownership
	// (an O(vertices) sweep).
	OwnedVertices int `json:"ownedVertices"`
	OwnedEdges    int `json:"ownedEdges"`
}

// Report is the router's aggregate telemetry.
type Report struct {
	Shards        int         `json:"shards"`
	Repartitions  int         `json:"repartitions"`
	Reassignments []Span      `json:"-"`
	PerShard      []ShardInfo `json:"perShard"`
}

// Report censuses the cluster. Sequential contract for the ownership
// sweep (it reads live stores); the counters are lock-copied.
func (r *Router) Report() Report {
	rep := Report{Shards: r.cfg.Shards, Reassignments: r.ring.Assignments()}
	r.mu.Lock()
	rep.Repartitions = r.moves
	for i, s := range r.shards {
		rep.PerShard = append(rep.PerShard, ShardInfo{
			Shard: i, Batches: s.batches, Edges: s.edges, Panics: s.panics,
		})
	}
	r.mu.Unlock()
	for i, s := range r.shards {
		st := s.runner.Store()
		n := st.NumVertices()
		info := &rep.PerShard[i]
		for v := 0; v < n; v++ {
			if r.ring.Owner(graph.VertexID(v)) == i {
				if d := st.OutDegree(graph.VertexID(v)); d > 0 || st.InDegree(graph.VertexID(v)) > 0 {
					info.OwnedVertices++
					info.OwnedEdges += d
				}
			}
		}
	}
	return rep
}

// Audits returns a copy of the repartitioner's decision-audit log.
func (r *Router) Audits() []obs.DecisionAudit {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.DecisionAudit(nil), r.audits...)
}

// Repartitions returns how many hot-range migrations have run.
func (r *Router) Repartitions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moves
}

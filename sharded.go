package streamgraph

import (
	"io"
	"math"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
	"streamgraph/internal/trace"
)

// ShardReport summarizes a sharded system's partitioning state; see
// System.ShardReport.
type ShardReport = shard.Report

// ShardInfo is one shard's row in a ShardReport.
type ShardInfo = shard.ShardInfo

// DecisionAudit is one controller decision record (ABR, OCA, or the
// shard repartitioner); see System.ShardAudits.
type DecisionAudit = obs.DecisionAudit

// newShardedSystem builds the N-shard variant of New: vertices are
// partitioned across cfg.Shards independent pipeline instances by
// consistent hashing, cross-shard edges are mirrored to both endpoint
// owners, and analytics run as scatter/gather supersteps instead of
// per-shard incremental engines. The dynamic repartitioner is on with
// its defaults.
func newShardedSystem(cfg Config, seed *graph.AdjacencyStore) *System {
	if cfg.LockFree {
		panic("streamgraph: Config.LockFree is incompatible with Shards > 1")
	}
	if cfg.ShadowStore != "" {
		panic("streamgraph: Config.ShadowStore is incompatible with Shards > 1")
	}

	pcfg := cfg.pipelineConfig()
	pcfg.OCA = oca.Config{Disabled: true} // analytics are scatter/gather, not per-shard engines
	s := &System{cfg: cfg}
	s.router = shard.New(shard.Config{
		Shards:   cfg.Shards,
		Vertices: cfg.Vertices,
		Pipeline: pcfg,
		Seed:     seed,
		// The observability bundle and fault injector attach to shard 0
		// only: metrics and decision traces stay single-writer per
		// batch, and injected fault schedules remain deterministic
		// (fan-out interleaving would scramble a shared counter).
		PerShard: func(i int, c pipeline.Config) pipeline.Config {
			if i == 0 {
				c.Obs = cfg.Observer
				c.Fault = cfg.Fault
			}
			return c
		},
	})
	s.shardDirty = true
	return s
}

// applySharded routes one batch through the shard router and maps the
// aggregate outcome onto the facade Result.
func (s *System) applySharded(edges []Edge, traceID uint64) (Result, error) {
	b := &graph.Batch{ID: s.nextID, TraceID: traceID, Edges: edges}
	s.nextID++
	res, err := s.router.Apply(b)
	if err != nil {
		return Result{}, err
	}
	s.shardDirty = true
	return Result{
		BatchID:           res.BatchID,
		Reordered:         res.Reordered,
		Instrumented:      res.Instrumented,
		CAD:               res.CAD,
		Locality:          res.Locality,
		Update:            res.Update,
		Locks:             res.Locks,
		SearchComparisons: res.Comparisons,
	}, nil
}

// refreshSharded recomputes the configured analytic's vector via the
// scatter/gather drivers. Called lazily from the query methods.
func (s *System) refreshSharded() {
	if !s.shardDirty {
		return
	}
	s.shardDirty = false
	switch s.cfg.Analytics {
	case AnalyticsPageRank:
		s.shardRanks = s.router.PageRanks(0, 0, 0)
	case AnalyticsSSSP:
		s.shardDists = s.router.SSSPDistances(s.cfg.Source)
	case AnalyticsBFS:
		s.shardLevels = s.router.BFSLevels(s.cfg.Source)
	case AnalyticsCC:
		s.shardLabels = s.router.CCLabels()
	}
}

func (s *System) shardRank(v VertexID) float64 {
	s.refreshSharded()
	if int(v) >= len(s.shardRanks) {
		return 0
	}
	return s.shardRanks[v]
}

func (s *System) shardRanksCopy() []float64 {
	if s.cfg.Analytics != AnalyticsPageRank {
		return nil
	}
	s.refreshSharded()
	out := make([]float64, len(s.shardRanks))
	copy(out, s.shardRanks)
	return out
}

func (s *System) shardDistance(v VertexID) float64 {
	s.refreshSharded()
	if int(v) >= len(s.shardDists) {
		return math.Inf(1)
	}
	return s.shardDists[v]
}

func (s *System) shardLevel(v VertexID) int32 {
	s.refreshSharded()
	if int(v) >= len(s.shardLevels) {
		return -1
	}
	return s.shardLevels[v]
}

func (s *System) shardComponent(v VertexID) VertexID {
	s.refreshSharded()
	if int(v) >= len(s.shardLabels) {
		return v
	}
	return s.shardLabels[v]
}

// writeShardedSnapshot materializes the merged view into an adjacency
// copy (the snapshot format is single-store).
func (s *System) writeShardedSnapshot(w io.Writer) error {
	v := s.router.View()
	adj := graph.NewAdjacencyStore(v.NumVertices())
	for u := 0; u < v.NumVertices(); u++ {
		src := VertexID(u)
		v.ForEachOut(src, func(n Neighbor) {
			adj.InsertEdge(Edge{Src: src, Dst: n.ID, Weight: n.Weight})
		})
	}
	return trace.WriteSnapshot(w, adj)
}

// Sharded reports whether the system runs partitioned across multiple
// pipeline instances (Config.Shards > 1).
func (s *System) Sharded() bool { return s.router != nil }

// ShardReport returns the sharded system's partitioning summary: per
// shard, the batches routed, edges applied, isolated panics, and
// currently owned vertices/edges, plus the migration count. The zero
// report when the system is unsharded.
func (s *System) ShardReport() ShardReport {
	if s.router == nil {
		return ShardReport{}
	}
	return s.router.Report()
}

// ShardAudits returns the repartitioner's decision audit log (nil when
// unsharded). Holds and migrations both appear, Controller "repart".
func (s *System) ShardAudits() []DecisionAudit {
	if s.router == nil {
		return nil
	}
	return s.router.Audits()
}

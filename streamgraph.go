// Package streamgraph is an input-aware streaming graph processing
// system, reproducing "Improving Streaming Graph Processing
// Performance using Input Knowledge" (MICRO 2021).
//
// A streaming graph system ingests batches of edge updates and runs
// analytics on each new snapshot. This library's contribution — the
// paper's — is that both phases are optimized *from the input itself*:
//
//   - Batch reordering (RO) clusters a batch's edges per vertex so one
//     thread applies all of a vertex's updates without locks. The
//     reordering sort here is a linear radix partition, cheap enough
//     that the default policy reorders every batch and measures each
//     one's degree distribution (the CAD_λ metric) on the way.
//     Adaptive Batch Reordering (ABR, Policy Adaptive) is the paper's
//     alternative for a comparison sort: it samples CAD_λ and reorders
//     only the batches whose high-degree vertices would otherwise
//     serialize on per-vertex locks.
//   - Update Search Coalescing (USC) turns a reordered vertex's many
//     duplicate-check searches into one scan plus a hash table.
//   - Overlap-based Compute Aggregation (OCA) merges the computation
//     rounds of consecutive batches that modify the same region of
//     the graph.
//   - A simulated CPU-coupled accelerator (HAU, internal/hau +
//     internal/sim) covers the reordering-adverse batches that
//     software cannot speed up.
//
// # Quick start
//
//	sys := streamgraph.New(streamgraph.Config{
//		Vertices:  100000,
//		Analytics: streamgraph.AnalyticsPageRank,
//	})
//	res, _ := sys.ApplyBatch(edges) // []streamgraph.Edge
//	fmt.Println(res.Reordered, sys.Rank(42))
//
// The examples/ directory contains runnable scenarios and
// cmd/sgbench regenerates every figure and table from the paper's
// evaluation.
package streamgraph

import (
	"errors"
	"io"
	"math"
	"time"

	"streamgraph/internal/abr"
	"streamgraph/internal/compute"
	"streamgraph/internal/fault"
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
	"streamgraph/internal/trace"
)

// Re-exported core types. External callers use these aliases; the
// implementation lives in internal packages.
type (
	// VertexID identifies a vertex (dense, starting at 0).
	VertexID = graph.VertexID
	// Weight is an edge weight; unweighted graphs use 1.
	Weight = graph.Weight
	// Edge is one streamed modification (Delete marks removals).
	Edge = graph.Edge
	// Neighbor is one adjacency entry.
	Neighbor = graph.Neighbor
	// Store is the read-only graph snapshot interface.
	Store = graph.Store
	// ABRParams are the adaptive batch reordering parameters
	// (instrumentation period N, degree cutoff Lambda, threshold TH).
	ABRParams = abr.Params
	// Observer is the observability bundle (metrics registry +
	// per-batch decision traces); see NewObserver.
	Observer = obs.Observer
	// BatchTrace is one batch's structured pipeline trace.
	BatchTrace = obs.BatchTrace
	// RunMetrics aggregates per-batch pipeline metrics; see
	// System.MetricsSnapshot.
	RunMetrics = pipeline.RunMetrics
	// FaultInjector injects deterministic faults at pipeline stage
	// boundaries for robustness testing; see internal/fault and
	// Config.Fault. Nil disables injection at zero cost.
	FaultInjector = fault.Injector
	// FaultSpec is a deterministic, seed-replayable fault schedule;
	// build an injector from it with NewFaultInjector.
	FaultSpec = fault.Spec
	// ShedConfig sets the load-shed ladder's pressure thresholds; see
	// Config.Shed.
	ShedConfig = pipeline.ShedConfig
	// ShadowReport describes the adaptive store replica's current
	// state; see Config.ShadowStore and System.ShadowReport.
	ShadowReport = graph.ShadowReport
)

// NewFaultInjector builds a fault injector from a schedule. Pass it
// via Config.Fault.
func NewFaultInjector(spec FaultSpec) *FaultInjector { return fault.New(spec) }

// FaultProfile resolves a canned fault schedule by name ("off",
// "latency", "stall", "panic", "mixed"); ok is false for unknown
// names.
func FaultProfile(name string, seed int64) (FaultSpec, bool) {
	return fault.Profile(name, seed)
}

// NewObserver builds an observability bundle holding the last
// traceCapacity batch traces (0 means the default of 256; negative
// disables tracing, keeping metrics only). Pass it via
// Config.Observer; its registry serves Prometheus exposition and its
// ring the /trace endpoint of cmd/sgserve.
func NewObserver(traceCapacity int) *Observer {
	return obs.New(obs.Options{TraceCapacity: traceCapacity})
}

// Policy selects the update execution strategy.
type Policy int

const (
	// AlwaysReorder, the default, reorders every batch and applies it
	// with RO+USC, profiling each batch's input (CAD_λ, run shape) from
	// the sorted view it already built.
	AlwaysReorder Policy = iota
	// Adaptive is the paper's input-aware software mode: ABR samples
	// CAD_λ every ABR.N batches and reorders (with USC) only when it
	// reaches ABR.TH.
	Adaptive
	// NeverReorder is the locked edge-parallel baseline.
	NeverReorder
)

// Analytics selects the streaming computation.
type Analytics int

const (
	// AnalyticsNone ingests updates without computing.
	AnalyticsNone Analytics = iota
	// AnalyticsPageRank maintains incremental PageRank.
	AnalyticsPageRank
	// AnalyticsSSSP maintains incremental single-source shortest
	// paths from Config.Source.
	AnalyticsSSSP
	// AnalyticsBFS maintains incremental hop distances from
	// Config.Source.
	AnalyticsBFS
	// AnalyticsCC maintains incremental connected components
	// (undirected interpretation).
	AnalyticsCC
)

// Config configures a System. The zero value is usable: an update-only
// system that reorders every batch and grows from an empty graph.
type Config struct {
	// Vertices pre-sizes the vertex space (the store grows on demand).
	Vertices int
	// Shards partitions the vertex space across that many independent
	// pipeline instances by consistent hashing (internal/shard):
	// batches split per shard with cross-shard edges mirrored to both
	// endpoint owners and fan out concurrently. The shards only
	// ingest: the configured analytic is the single-node engine, run
	// over the shards' merged view after each batch, with OCA deciding
	// when; OCA's locality is then an estimate, because a vertex
	// updated on two shards counts twice. A dynamic repartitioner
	// migrates hot vertex ranges as the observed degree skew drifts.
	// 0 or 1 means the ordinary single-pipeline system. Incompatible
	// with LockFree and ShadowStore (New panics); ConcurrentCompute
	// has no effect, as every round runs inside its batch.
	Shards int
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Policy is the update strategy (default AlwaysReorder).
	Policy Policy
	// ABR overrides the adaptive parameters; zero value means the
	// paper's n=10, λ=256, TH=465. Every policy measures CAD_λ with
	// its λ; N and TH only matter under Adaptive.
	ABR ABRParams
	// Analytics selects the maintained computation.
	Analytics Analytics
	// Source is the SSSP source vertex.
	Source VertexID
	// DisableOCA turns off compute aggregation, for latency-critical
	// applications that cannot trade computation granularity.
	DisableOCA bool
	// ConcurrentCompute overlaps each computation round with the next
	// batch's update, running analytics on an immutable flat snapshot
	// (Aspen-style latency hiding). Round durations land in a later
	// batch's Result; call Flush before reading final analytics.
	ConcurrentCompute bool
	// Observer, when non-nil, turns on the observability layer: the
	// pipeline, update engines, and ABR/OCA controllers record
	// metrics and per-batch decision traces into it (see NewObserver).
	Observer *Observer
	// Fault, when non-nil, injects a deterministic fault schedule at
	// the pipeline's stage boundaries (robustness testing; see
	// NewFaultInjector). Nil is zero-cost.
	Fault *FaultInjector
	// Shed configures the load-shed ladder; the zero value disables
	// it. Requires a pressure source (SetPressureSource).
	Shed ShedConfig
	// Recover makes the overlapped-compute goroutine recover panics
	// into observability records instead of crashing the process.
	// Serving deployments (internal/server) enable it together with
	// ApplyBatchIsolated.
	Recover bool
	// LockFree routes updates through the epoch-based lock-free hot
	// path: batches apply with run-partitioned writers into per-batch
	// arena memory and publish atomically at an epoch boundary, and
	// readers — compute rounds, GraphSnapshot queries — pin wait-free
	// point-in-time snapshots instead of stopping the world for a
	// copy. Combine with ConcurrentCompute for full update/compute
	// overlap. WriteSnapshot still works (it materializes an adjacency
	// copy); Graph() reads the live store between batches.
	LockFree bool
	// ShadowStore, when non-empty, attaches an adaptive store replica
	// that ingests every batch after the primary update and migrates
	// the live graph between representations ("adjacency", "dah",
	// "hybrid", "tango") as the stream's observed profile drifts. The
	// value names the initial representation; New panics on unknown
	// names. Inspect the replica with System.ShadowReport.
	ShadowStore string
}

// Result reports one ingested batch.
type Result struct {
	// BatchID is the sequence number assigned to the batch.
	BatchID int
	// Reordered reports whether the batch ran in the reordered mode;
	// Instrumented whether its input was measured: every reordered
	// batch by default, the ABR-active ones under Adaptive.
	Reordered    bool
	Instrumented bool
	// CAD is the measured CAD_λ on instrumented batches.
	CAD float64
	// Locality is the current inter-batch locality estimate.
	Locality float64
	// Update and Compute are the phase durations. Compute is zero
	// when OCA deferred this batch's round.
	Update  time.Duration
	Compute time.Duration
	// ComputedBatches is how many batches the compute round covered
	// (0 if deferred).
	ComputedBatches int
	// Locks and SearchComparisons expose the update engine's
	// synchronization and duplicate-search work for observability
	// (the quantities the paper's optimizations target).
	Locks             int64
	SearchComparisons int64
}

// System is a streaming graph processing instance. Not safe for
// concurrent use: batches are ingested sequentially, as in the
// paper's execution model.
type System struct {
	cfg    Config
	runner *pipeline.Runner
	shadow *graph.AdaptiveStore
	// eng is the configured analytic (nil for AnalyticsNone); exactly
	// one of the typed handles below aliases it.
	eng    compute.Engine
	pr     *compute.PageRank
	sssp   *compute.SSSP
	bfs    *compute.BFS
	cc     *compute.CC
	nextID int

	// Sharded mode (Config.Shards > 1): router replaces runner, and
	// the facade schedules eng's rounds itself (see sharded.go).
	router   *shard.Router
	agg      *oca.Aggregator
	pressure func() float64
	// batchPressure is pressure's reading for the batch in flight,
	// taken once so the shards and the round see the same value.
	batchPressure float64
}

// New builds a system from cfg.
func New(cfg Config) *System { return newWithGraph(cfg, nil) }

// NewFromSnapshot restores a system from a snapshot written by
// WriteSnapshot. The configured analytic is initialized with one full
// refresh over the restored graph.
func NewFromSnapshot(cfg Config, r io.Reader) (*System, error) {
	store, err := trace.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	s := newWithGraph(cfg, store)
	s.Recompute()
	return s, nil
}

// newWithGraph builds a single-pipeline or sharded system over an
// initial graph (nil for an empty one).
func newWithGraph(cfg Config, store *graph.AdjacencyStore) *System {
	s := &System{cfg: cfg}
	switch cfg.Analytics {
	case AnalyticsPageRank:
		s.pr = &compute.PageRank{Incremental: true, Workers: cfg.Workers}
		s.eng = s.pr
	case AnalyticsSSSP:
		s.sssp = &compute.SSSP{Incremental: true, Workers: cfg.Workers, Source: cfg.Source}
		s.eng = s.sssp
	case AnalyticsBFS:
		s.bfs = &compute.BFS{Incremental: true, Workers: cfg.Workers, Source: cfg.Source}
		s.eng = s.bfs
	case AnalyticsCC:
		s.cc = &compute.CC{Incremental: true, Workers: cfg.Workers}
		s.eng = s.cc
	}
	if cfg.Shards > 1 {
		s.initSharded(store)
	} else {
		s.initPipeline(store)
	}
	return s
}

// pipelineConfig is the part of a pipeline configuration that every
// pipeline of a system shares, the one of New and each shard of a
// sharded system alike: above all the facade's policy, mapped onto the
// pipeline's here and nowhere else.
func (cfg Config) pipelineConfig() pipeline.Config {
	pol := pipeline.AlwaysROUSC
	switch cfg.Policy {
	case Adaptive:
		pol = pipeline.ABRUSC
	case NeverReorder:
		pol = pipeline.Baseline
	}
	return pipeline.Config{
		Policy:    pol,
		ABRParams: cfg.ABR,
		Workers:   cfg.Workers,
		Shed:      cfg.Shed,
		Recover:   cfg.Recover,
	}
}

// initPipeline sets up the single-pipeline system, whose runner
// schedules the engine's rounds.
func (s *System) initPipeline(store *graph.AdjacencyStore) {
	cfg := s.cfg
	if cfg.ShadowStore != "" {
		kind, err := graph.ParseStoreKind(cfg.ShadowStore)
		if err != nil {
			panic("streamgraph: Config.ShadowStore: " + err.Error())
		}
		shadowVerts := cfg.Vertices
		if store != nil {
			shadowVerts = store.NumVertices()
		}
		s.shadow = graph.NewAdaptiveStore(kind, shadowVerts, graph.AdaptiveOptions{
			Obs: cfg.Observer,
		})
		// Seed the replica with any pre-existing state (snapshot
		// restores); a fresh system's store is empty and this is free.
		if store != nil {
			copyGraph(s.shadow, store)
		}
	}

	pcfg := cfg.pipelineConfig()
	pcfg.Compute = s.eng
	pcfg.ConcurrentCompute = cfg.ConcurrentCompute
	pcfg.OCA = oca.Config{Disabled: cfg.DisableOCA || s.eng == nil}
	pcfg.Obs = cfg.Observer
	pcfg.Fault = cfg.Fault
	pcfg.Shadow = s.shadow
	if cfg.LockFree {
		pcfg.Epoch = true
		verts := cfg.Vertices
		if store != nil && store.NumVertices() > verts {
			verts = store.NumVertices()
		}
		s.runner = pipeline.NewRunner(pcfg, verts)
		// Snapshot restores arrive as an adjacency store; replay its
		// edges into the epoch store so LockFree systems restore too.
		if store != nil {
			copyGraph(s.runner.EpochStore(), store)
		}
	} else {
		if store == nil {
			store = graph.NewAdjacencyStore(cfg.Vertices)
		}
		s.runner = pipeline.NewRunnerWithStore(pcfg, store)
	}
}

// ShadowReport returns the adaptive replica's current state; the zero
// report (empty Kind) when Config.ShadowStore is unset. Safe to call
// between batches; not synchronized with an in-flight ApplyBatch.
func (s *System) ShadowReport() ShadowReport {
	if s.shadow == nil {
		return ShadowReport{}
	}
	return s.shadow.Report()
}

// Observer returns the observability bundle the system records into
// (nil when Config.Observer was not set).
func (s *System) Observer() *Observer { return s.cfg.Observer }

// MetricsSnapshot returns a copy of the per-batch pipeline metrics
// accumulated so far. Unlike the live Result stream, it is safe to
// call from any goroutine, including while a ConcurrentCompute round
// is in flight.
func (s *System) MetricsSnapshot() RunMetrics {
	if s.router != nil {
		return s.router.MetricsSnapshot()
	}
	return s.runner.MetricsSnapshot()
}

// WriteSnapshot serializes the current graph for later restoration
// with NewFromSnapshot. Call Flush first if deferred compute rounds
// must be reflected in analytics (the snapshot itself only stores the
// graph).
func (s *System) WriteSnapshot(w io.Writer) error {
	if s.runner != nil && s.runner.Store() != nil {
		return trace.WriteSnapshot(w, s.runner.Store())
	}
	// LockFree and sharded: the snapshot format is adjacency-backed,
	// so materialize a copy of the graph (stop-the-world is fine here;
	// snapshotting is an explicitly heavyweight operation).
	g := s.Graph()
	adj := graph.NewAdjacencyStore(g.NumVertices())
	copyGraph(adj, g)
	return trace.WriteSnapshot(w, adj)
}

// copyGraph inserts every edge of src into dst.
func copyGraph(dst graph.Mutable, src graph.Store) {
	for v := 0; v < src.NumVertices(); v++ {
		u := graph.VertexID(v)
		src.ForEachOut(u, func(n graph.Neighbor) {
			dst.InsertEdge(graph.Edge{Src: u, Dst: n.ID, Weight: n.Weight})
		})
	}
}

// Recompute refreshes the configured analytic over the whole current
// snapshot (a full static round).
func (s *System) Recompute() {
	if s.eng != nil {
		s.eng.Update(s.Graph()) // zero batches = full refresh
	}
}

// ApplyBatch ingests one batch of edges and runs the (possibly
// aggregated) computation round.
func (s *System) ApplyBatch(edges []Edge) (Result, error) {
	if len(edges) == 0 {
		return Result{}, errors.New("streamgraph: empty batch")
	}
	if s.router != nil {
		return s.applySharded(edges, 0)
	}
	b := &graph.Batch{ID: s.nextID, Edges: edges}
	s.nextID++
	bm := s.runner.ProcessBatch(b)
	return Result{
		BatchID:           bm.BatchID,
		Reordered:         bm.Reordered,
		Instrumented:      bm.ABRActive,
		CAD:               bm.CAD,
		Locality:          bm.Locality,
		Update:            bm.Update,
		Compute:           bm.Compute,
		ComputedBatches:   bm.AggregatedBatches,
		Locks:             bm.Stats.Locks,
		SearchComparisons: bm.Stats.Comparisons,
	}, nil
}

// ApplyBatchIsolated is ApplyBatch behind the pipeline's panic
// isolation boundary: a panic while processing the batch (a fault
// injection or a real bug) is returned as an error instead of
// crashing, the system stays usable, and — because injected update
// panics fire before any store mutation and batch re-application is
// idempotent — re-submitting the same batch is always safe. The
// failed attempt keeps its batch ID; IDs number attempts, not
// successes.
func (s *System) ApplyBatchIsolated(edges []Edge) (Result, error) {
	return s.ApplyBatchIsolatedTraced(edges, 0)
}

// ApplyBatchIsolatedTraced is ApplyBatchIsolated with an explicit
// trace ID: the server allocates one per ingest request (see
// Observer.NextTraceID) so request-level spans recorded before the
// batch existed — parse, admission — join the batch's span tree.
// traceID 0 lets the pipeline allocate a fresh one.
func (s *System) ApplyBatchIsolatedTraced(edges []Edge, traceID uint64) (Result, error) {
	if len(edges) == 0 {
		return Result{}, errors.New("streamgraph: empty batch")
	}
	if s.router != nil {
		var res Result
		err := s.isolate(s.nextID, len(edges), func() (err error) {
			res, err = s.applySharded(edges, traceID)
			return err
		})
		return res, err
	}
	b := &graph.Batch{ID: s.nextID, TraceID: traceID, Edges: edges}
	s.nextID++
	bm, err := s.runner.ProcessBatchIsolated(b)
	if err != nil {
		return Result{}, err
	}
	return Result{
		BatchID:           bm.BatchID,
		Reordered:         bm.Reordered,
		Instrumented:      bm.ABRActive,
		CAD:               bm.CAD,
		Locality:          bm.Locality,
		Update:            bm.Update,
		Compute:           bm.Compute,
		ComputedBatches:   bm.AggregatedBatches,
		Locks:             bm.Stats.Locks,
		SearchComparisons: bm.Stats.Comparisons,
	}, nil
}

// SetPressureSource attaches the load-shed ladder's input: a function
// returning current ingestion pressure in [0, 1] (internal/server
// reports admission-queue occupancy). Call before the first batch.
func (s *System) SetPressureSource(f func() float64) {
	if s.router != nil {
		s.pressure = f
		s.router.SetPressure(func() float64 { return s.batchPressure })
		return
	}
	s.runner.SetPressure(f)
}

// Flush forces any computation round OCA deferred. Call at stream
// end (or before reading results that must reflect every batch).
func (s *System) Flush() {
	if s.router != nil {
		if err := s.flushSharded(); err != nil {
			panic(err)
		}
		return
	}
	s.runner.Finish()
}

// FlushIsolated is Flush behind the panic isolation boundary; see
// ApplyBatchIsolated.
func (s *System) FlushIsolated() error {
	if s.router != nil {
		return s.isolate(-1, 0, s.flushSharded)
	}
	return s.runner.FinishIsolated()
}

// Graph returns the current graph state for ad-hoc queries. The view
// is live: under the sequential execution contract read it between
// batches. For reads concurrent with ingest use GraphSnapshot.
func (s *System) Graph() Store {
	if s.router != nil {
		return s.router.View()
	}
	return s.runner.ReadStore()
}

// LockFree reports whether the system runs the epoch-based lock-free
// hot path (Config.LockFree): GraphSnapshot views are then safe to
// read concurrently with an in-flight ApplyBatch.
func (s *System) LockFree() bool { return s.cfg.LockFree }

// GraphSnapshot returns a point-in-time view of the graph and a
// release function that MUST be called when the read is done. In
// LockFree mode the view is a pinned epoch snapshot: wait-free,
// consistent at a batch boundary, and safe to read while ApplyBatch
// runs on another goroutine — but a held pin stalls memory
// reclamation, so release promptly. Otherwise the view is the live
// store with a no-op release and the sequential contract applies.
func (s *System) GraphSnapshot() (Store, func()) {
	if s.runner != nil && s.runner.EpochStore() != nil {
		snap := s.runner.EpochStore().Snapshot()
		return snap, snap.Release
	}
	return s.Graph(), func() {}
}

// NumVertices returns the current vertex-space size.
func (s *System) NumVertices() int { return s.Graph().NumVertices() }

// NumEdges returns the current directed edge count (mirrored copies
// in sharded mode count once, at the source's owner).
func (s *System) NumEdges() int { return s.Graph().NumEdges() }

// Rank returns a vertex's current PageRank (0 when PageRank is not
// the configured analytic).
func (s *System) Rank(v VertexID) float64 {
	if s.pr == nil {
		return 0
	}
	return s.pr.Rank(v)
}

// Ranks returns a copy of the PageRank vector (nil when PageRank is
// not the configured analytic).
func (s *System) Ranks() []float64 {
	if s.pr == nil {
		return nil
	}
	return s.pr.Ranks()
}

// Distance returns a vertex's current shortest-path distance from
// Config.Source (+Inf when unreached or SSSP is not configured).
func (s *System) Distance(v VertexID) float64 {
	if s.sssp == nil {
		return math.Inf(1)
	}
	return s.sssp.Dist(v)
}

// Level returns a vertex's current BFS hop distance from
// Config.Source (-1 when unreached or BFS is not configured).
func (s *System) Level(v VertexID) int32 {
	if s.bfs == nil {
		return -1
	}
	return s.bfs.Level(v)
}

// Component returns a vertex's current connected-component label (the
// vertex's own ID when CC is not configured or v is isolated).
func (s *System) Component(v VertexID) VertexID {
	if s.cc == nil {
		return v
	}
	return s.cc.Label(v)
}

// Command sgserve exposes a streaming graph system over HTTP: edge
// batches stream in via POST, analytics stream out via GET, and the
// graph can be checkpointed and restored.
//
//	sgserve -listen :8080 -analytics pagerank -vertices 100000
//
// API:
//
//	POST /batch      body: JSON [{"src":1,"dst":2,"weight":1,"delete":false}, ...]
//	                 → {"batchId":0,"reordered":true,...}
//	GET  /rank?v=7       → {"vertex":7,"rank":0.0123}
//	GET  /distance?v=7   → {"vertex":7,"distance":3}   (SSSP mode)
//	GET  /level?v=7      → {"vertex":7,"level":2}      (BFS mode)
//	GET  /component?v=7  → {"vertex":7,"component":0}  (CC mode)
//	GET  /stats          → {"vertices":...,"edges":...,"batches":...}
//	GET  /metrics        → Prometheus text exposition (pipeline, ABR,
//	                       OCA, and update-engine series)
//	GET  /metrics.json   → the same counters as a JSON snapshot
//	GET  /trace?n=10     → last n per-batch decision traces (with
//	                       span trees and ABR/OCA decision audits)
//	GET  /trace/spans?n=100 → span flight recorder as JSON lines
//	GET  /snapshot       → binary snapshot download
//	POST /flush          → force any deferred compute round
//
// With -span-log, every completed span is additionally appended to a
// file as JSON lines — a persistent flight record that survives the
// in-memory ring (-span-buffer) wrapping.
//
// With -pprof, net/http/pprof and expvar are additionally served
// under /debug/.
//
// The system processes batches sequentially (the paper's execution
// model); concurrent POSTs serialize behind a bounded admission queue.
// Overflow is rejected with 429 + Retry-After, waits are bounded by
// -queue-timeout (then 503, batch not applied), a batch that panics
// the pipeline answers 503 with the server still usable, and queue
// pressure drives a load-shed ladder (-shed-skip / -shed-force). A
// deterministic fault schedule can be injected with -fault for
// robustness drills.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"streamgraph"
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/server"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "listen address")
		vertices  = flag.Int("vertices", 100000, "initial vertex-space size")
		analytics = flag.String("analytics", "pagerank", "pagerank | sssp | bfs | cc | none")
		source    = flag.Uint("source", 0, "source vertex for sssp/bfs")
		noOCA     = flag.Bool("no-oca", false, "disable compute aggregation (latency-critical mode)")
		traceCap  = flag.Int("trace-buffer", 256, "per-batch trace ring size (0 disables tracing)")
		spanCap   = flag.Int("span-buffer", 4096, "span flight-recorder ring size (0 disables span recording)")
		spanLog   = flag.String("span-log", "", "append completed spans to this file as JSON lines")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof and expvar under /debug/")

		queue        = flag.Int("queue", 64, "admission queue depth (excess batches get 429)")
		queueTimeout = flag.Duration("queue-timeout", 10*time.Second, "max wait for the system before 503")
		shedSkip     = flag.Float64("shed-skip", 0.5, "queue pressure [0,1] above which compute rounds are deferred (0 disables the ladder)")
		shedForce    = flag.Float64("shed-force", 0.85, "queue pressure [0,1] above which updates fall back to the locked baseline engine")
		faultProfile = flag.String("fault", "off", "fault injection profile for robustness drills (off|latency|stall|panic|mixed)")
		faultSeed    = flag.Int64("fault-seed", 1, "fault jitter seed (with -fault)")
		maxEdges     = flag.Int("max-batch-edges", 1<<20, "reject larger batches with 400")
		maxVertex    = flag.Uint("max-vertex", 1<<26, "reject batches naming vertex IDs above this with 400")
		shadowStore  = flag.String("store-shadow", "", "attach an adaptive store replica starting in this representation (adjacency|dah|hybrid|tango); reported as storeShadow in /metrics.json")
		lockFree     = flag.Bool("lockfree", false, "serve from the epoch store: wait-free /neighbors snapshot reads concurrent with ingest")
		shards       = flag.Int("shards", 1, "partition the vertex space across this many pipeline instances (consistent hashing, mirrored cross-shard edges, dynamic repartitioning); reported as shards in /metrics.json")
	)
	flag.Parse()

	var a streamgraph.Analytics
	switch *analytics {
	case "pagerank":
		a = streamgraph.AnalyticsPageRank
	case "sssp":
		a = streamgraph.AnalyticsSSSP
	case "bfs":
		a = streamgraph.AnalyticsBFS
	case "cc":
		a = streamgraph.AnalyticsCC
	case "none":
		a = streamgraph.AnalyticsNone
	default:
		log.Fatalf("sgserve: unknown analytics %q", *analytics)
	}

	// Observability is on by default: the registry's per-batch cost is
	// a handful of atomics (see BenchmarkObsOverhead), and a serving
	// binary without /metrics is blind.
	ringCap := *traceCap
	if ringCap == 0 {
		ringCap = -1 // Observer semantics: negative disables tracing
	}
	spanRing := *spanCap
	if spanRing == 0 {
		spanRing = -1
	}
	o := obs.New(obs.Options{TraceCapacity: ringCap, SpanCapacity: spanRing})
	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("sgserve: open span log: %v", err)
		}
		defer f.Close()
		o.SetSpanSink(f)
		log.Printf("sgserve: span log → %s", *spanLog)
	}

	if *shadowStore != "" {
		if _, err := graph.ParseStoreKind(*shadowStore); err != nil {
			log.Fatalf("sgserve: -store-shadow: %v", err)
		}
	}

	if *shards > 1 && (*lockFree || *shadowStore != "") {
		log.Fatalf("sgserve: -shards > 1 is incompatible with -lockfree and -store-shadow")
	}

	spec, ok := streamgraph.FaultProfile(*faultProfile, *faultSeed)
	if !ok {
		log.Fatalf("sgserve: unknown fault profile %q", *faultProfile)
	}
	var inj *streamgraph.FaultInjector
	if spec.Enabled() {
		inj = streamgraph.NewFaultInjector(spec)
		log.Printf("sgserve: fault injection ON: %v", spec)
	}
	var shed streamgraph.ShedConfig
	if *shedSkip > 0 {
		shed = streamgraph.ShedConfig{SkipComputeAt: *shedSkip, ForceBaselineAt: *shedForce}
	}

	sys := streamgraph.New(streamgraph.Config{
		Vertices:   *vertices,
		Analytics:  a,
		Source:     streamgraph.VertexID(*source),
		DisableOCA: *noOCA,
		Observer:   o,
		Fault:      inj,
		Shed:       shed,
		// A serving process recovers pipeline panics into 503s (with
		// the batch not counted) instead of dying mid-stream.
		Recover:     true,
		ShadowStore: *shadowStore,
		LockFree:    *lockFree,
		Shards:      *shards,
	})
	if *shadowStore != "" {
		log.Printf("sgserve: adaptive store shadow ON, starting as %s", *shadowStore)
	}
	if *lockFree {
		log.Printf("sgserve: lock-free epoch store ON (wait-free snapshot reads)")
	}
	if *shards > 1 {
		log.Printf("sgserve: sharded across %d pipeline instances (dynamic repartitioning on)", *shards)
	}

	mux := http.NewServeMux()
	mux.Handle("/", server.NewWithOptions(sys, server.Options{
		QueueDepth:    *queue,
		QueueTimeout:  *queueTimeout,
		MaxBatchEdges: *maxEdges,
		MaxVertex:     uint32(*maxVertex),
	}))
	if *pprofOn {
		obs.RegisterProfiling(mux)
		log.Printf("sgserve: pprof+expvar on /debug/")
	}
	log.Printf("sgserve: %s analytics on %s", *analytics, *listen)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"streamgraph"
	"streamgraph/internal/abr"
	"streamgraph/internal/compute"
	"streamgraph/internal/graph"
	"streamgraph/internal/oca"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/reorder"
	"streamgraph/internal/server"
	"streamgraph/internal/shard"
	"streamgraph/internal/update"
)

// tracer is one traced run. It replays the workload's lap-0 batches
// through the public functions of every layer, on replicas of the
// store, with a span around each call. Every layer is replayed on every
// workload's own input, whether or not that workload's end-to-end path
// uses the layer. What ABR and OCA decided is taken from the facade's
// own results, so the OCA figures are 0 on a workload configured without
// analytics.
type tracer struct {
	w   *workload
	rec *recorder
	// lap is lap 0's whole input; batches is the part of it every layer
	// replays (all of it, unless the workload says fewer).
	lap      []*graph.Batch
	batches  []*graph.Batch
	edges    int
	vertices int
	workers  int
	out      map[string]metric
	// ladder holds the serving ladder's figures, which exist only for a
	// served workload and so are printed but are not per-layer metrics.
	ladder map[string]metric
	// attempted and failed count the operations whose outcome the
	// replay can see: facade calls and HTTP requests.
	attempted, failed int
}

func (t *tracer) set(name, unit string, v float64) { t.out[name] = metric{Value: v, Unit: unit} }

// perEdge is d spread over every edge of the replayed batches.
func (t *tracer) perEdge(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(t.edges)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func p50(vals []float64) float64 {
	v, _ := percentile(sortedCopy(vals), 0.50)
	return v
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// pipelineConfig is the facade's mapping from its Config to the
// pipeline's, for the fields the workloads set.
func pipelineConfig(cfg streamgraph.Config, workers int) pipeline.Config {
	var engine compute.Engine
	if cfg.Analytics == streamgraph.AnalyticsPageRank {
		engine = &compute.PageRank{Incremental: true, Workers: workers}
	}
	return pipeline.Config{
		Policy:  pipeline.ABRUSC,
		Workers: workers,
		Compute: engine,
		OCA:     oca.Config{Disabled: cfg.DisableOCA || engine == nil},
		Obs:     cfg.Observer,
		Shed:    cfg.Shed,
		Recover: cfg.Recover,
	}
}

// scanSink keeps the sweeps and probes of the graph layer from being
// optimised away.
var scanSink int

func tracedRun(w *workload, seed int64, tracePath string) runResult {
	res := runResult{Workload: w.name, Seed: seed, Laps: 1, Correct: true}
	t := &tracer{w: w, rec: newRecorder(), workers: runtime.GOMAXPROCS(0), out: make(map[string]metric)}
	t.vertices = w.config().Vertices
	g0 := time.Now()
	need := w.lapBatches()
	if w.serve {
		need = max(need, w.warm+ladderPosts)
	}
	t.lap = w.generate(mixSeed(seed, w.name, 0), need)
	t.set("bench.lap_prep_s", "s", time.Since(g0).Seconds())
	t.batches = t.lap
	if w.replay > 0 {
		t.batches = t.lap[:w.replay]
	}
	for _, b := range t.batches {
		t.edges += len(b.Edges)
	}

	results, coldWall, sys := t.facade(w.config(), true)
	t.decisions(results, coldWall)
	t.snapshot(sys)
	chosen, replica := t.chosenPath(results)
	model, err := verifyGraph(sys.Graph(), t.batches)
	if err != nil {
		res.Correct, res.Problem = false, "facade: "+err.Error()
	} else if d := model.Verify(replica); d != nil {
		res.Correct, res.Problem = false, "layer replay: "+d.Error()
	}
	// The reference model is several times the size of the graph; hand
	// its memory back so the passes below start from a heap like the
	// one the passes above had.
	sys, model, replica = nil, nil, nil
	releaseVerifyMemory()

	facadeWall := t.obsLayer()
	pipeWall := t.pipelineLayer(chosen)
	t.updateAndGraph()
	t.reorderLayer()
	t.abrLayer()
	t.shardLayer()
	t.serverLayer()
	t.serveLadder()

	t.set("bench.trace_overhead_share", "ratio", share(float64(pipeWall-facadeWall), float64(facadeWall)))
	t.set("bench.samples", "count", float64(len(t.rec.spans)))
	errShare := share(float64(t.failed), float64(t.attempted))
	if !res.Correct {
		errShare = 1
	}
	t.set("bench.error_share", "ratio", errShare)
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	t.set("runtime.peak_rss_mb", "MB", rss)
	if err := t.rec.write(tracePath, w.name, seed); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", tracePath, err)
	}
	res.Attempted, res.Failed, res.Metrics, res.Ladder = t.attempted, t.failed, t.out, t.ladder
	return res
}

// facade applies every batch through the facade with no spans: the
// reference the replays are compared with, and the source of each
// batch's decisions (which ABR and OCA make from the input alone, so
// they repeat exactly). With runtimeStats it also reports what the Go
// runtime did meanwhile.
func (t *tracer) facade(cfg streamgraph.Config, runtimeStats bool) ([]streamgraph.Result, time.Duration, *streamgraph.System) {
	sys := streamgraph.New(cfg)
	results := make([]streamgraph.Result, 0, len(t.batches))
	runtime.GC()
	before := memStats()
	var wall time.Duration
	for _, b := range t.batches {
		t.attempted++
		t0 := time.Now()
		r, err := sys.ApplyBatch(b.Edges)
		wall += time.Since(t0)
		if err != nil {
			t.failed++
		}
		results = append(results, r)
	}
	t0 := time.Now()
	sys.Flush()
	wall += time.Since(t0)
	if runtimeStats {
		after := memStats()
		t.set("runtime.alloc_b_per_edge", "B/edge", float64(after.TotalAlloc-before.TotalAlloc)/float64(t.edges))
		t.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
		t.set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	}
	return results, wall, sys
}

// snapshot times writing and restoring the final graph: state size and
// snapshot time.
func (t *tracer) snapshot(sys *streamgraph.System) {
	var buf bytes.Buffer
	id := t.rec.start("trace.WriteSnapshot", -1, -1)
	err := sys.WriteSnapshot(&buf)
	t.set("trace.snapshot_ms", "ms", ms(t.rec.end(id)))
	t.set("trace.snapshot_mb", "MB", float64(buf.Len())/1e6)
	t.attempted++
	if err != nil {
		t.failed++
	}
	id = t.rec.start("trace.NewFromSnapshot", -1, -1)
	_, err = streamgraph.NewFromSnapshot(streamgraph.Config{}, &buf)
	t.set("trace.restore_ms", "ms", ms(t.rec.end(id)))
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// chosenPath replays, batch by batch, the layer calls the pipeline
// chose for that batch — the update engine, ABR's measurement, the
// compute round — each under its own span beneath the batch's root
// span, on a replica store. It returns the sum of those layer calls and
// the replica.
func (t *tracer) chosenPath(results []streamgraph.Result) (time.Duration, *graph.AdjacencyStore) {
	pcfg := pipelineConfig(t.w.config(), t.workers)
	lambda := abr.DefaultParams.Lambda
	store := graph.NewAdjacencyStore(t.vertices)
	base := &update.Baseline{Cfg: update.Config{Workers: t.workers}}
	usc := &update.Reordered{Cfg: update.Config{Workers: t.workers, CollectDstRuns: true}, USC: true}
	var pending []*graph.Batch
	var sum time.Duration
	for i, b := range t.batches {
		r := results[i]
		root := t.rec.start("batch", -1, i)
		var st update.Stats
		if r.Reordered {
			id := t.rec.start("update.Reordered.Apply", root, i)
			st = usc.Apply(store, b)
			sum += t.rec.end(id)
		} else {
			id := t.rec.start("update.Baseline.Apply", root, i)
			st = base.Apply(store, b)
			sum += t.rec.end(id)
		}
		if r.Instrumented {
			// ABR reads the run lengths a reordered update left behind,
			// and pays a counting pass of its own otherwise.
			if r.Reordered {
				id := t.rec.start("abr.CADFromRuns", root, i)
				abr.CADFromRuns(st.DstRunLens, lambda)
				sum += t.rec.end(id)
			} else {
				id := t.rec.start("abr.CollectConcurrent", root, i)
				abr.CollectConcurrent(b, lambda, t.workers)
				sum += t.rec.end(id)
			}
		}
		pending = append(pending, b)
		if pcfg.Compute != nil && r.ComputedBatches > 0 {
			n := min(r.ComputedBatches, len(pending))
			id := t.rec.start("compute.Update", root, i)
			pcfg.Compute.Update(store, pending[len(pending)-n:]...)
			sum += t.rec.end(id)
			pending = pending[:len(pending)-n]
		}
		t.rec.end(root)
	}
	if pcfg.Compute != nil && len(pending) > 0 {
		id := t.rec.start("compute.Update", -1, len(t.batches))
		pcfg.Compute.Update(store, pending...)
		sum += t.rec.end(id)
	}
	return sum, store
}

// runPipeline feeds every batch to a pipeline.Runner under a span and
// returns the wall time and the time the runner itself attributes to
// update and compute.
func (t *tracer) runPipeline(workers int, spanName string) (wall, inside time.Duration) {
	r := pipeline.NewRunner(pipelineConfig(t.w.config(), workers), t.vertices)
	for i, b := range t.batches {
		id := t.rec.start(spanName, -1, i)
		r.ProcessBatch(b)
		wall += t.rec.end(id)
	}
	id := t.rec.start(spanName+".Finish", -1, len(t.batches))
	r.Finish()
	wall += t.rec.end(id)
	m := r.MetricsSnapshot()
	for i := range m.Batches {
		inside += m.Batches[i].Update + m.Batches[i].Compute
	}
	return wall, inside
}

// pipelineLayer times the pipeline as a whole, at the default worker
// count and single-threaded, and states how far the sum of the chosen
// layer calls is from it.
func (t *tracer) pipelineLayer(chosen time.Duration) time.Duration {
	wall, inside := t.runPipeline(t.workers, "pipeline.ProcessBatch")
	t.set("pipeline.batch_ns_per_edge", "ns/edge", t.perEdge(wall))
	t.set("pipeline.self_share", "ratio", 1-share(float64(inside), float64(wall)))
	diff := chosen - wall
	if diff < 0 {
		diff = -diff
	}
	t.set("pipeline.residual_share", "ratio", share(float64(diff), float64(wall)))
	w1, _ := t.runPipeline(1, "pipeline.ProcessBatch.w1")
	t.set("pipeline.w1_ns_per_edge", "ns/edge", t.perEdge(w1))
	t.set("pipeline.scaling", "ratio", share(float64(w1), float64(wall)))
	return wall
}

// decisions reports what ABR, OCA and the compute engine did on this
// input, from the facade's own results: counts that repeat exactly.
func (t *tracer) decisions(results []streamgraph.Result, facadeWall time.Duration) {
	n := float64(len(results))
	var reordered, instrumented, cadSum, localitySum, rounds, covered float64
	var locks, cmps int64
	var computeTotal time.Duration
	for _, r := range results {
		if r.Reordered {
			reordered++
		}
		if r.Instrumented {
			instrumented++
			cadSum += r.CAD
		}
		localitySum += r.Locality
		if r.ComputedBatches > 0 {
			rounds++
			covered += float64(r.ComputedBatches)
		}
		computeTotal += r.Compute
		locks += r.Locks
		cmps += r.SearchComparisons
	}
	t.set("abr.reorder_share", "ratio", share(reordered, n))
	t.set("abr.instrumented_share", "ratio", share(instrumented, n))
	t.set("abr.cad_mean", "count", share(cadSum, instrumented))
	t.set("update.locks_per_edge", "count", float64(locks)/float64(t.edges))
	t.set("update.search_cmp_per_edge", "count", float64(cmps)/float64(t.edges))
	analytics := t.w.config().Analytics != streamgraph.AnalyticsNone
	deferred := 0.0
	if analytics {
		deferred = share(n-rounds, n)
	}
	t.set("oca.deferred_share", "ratio", deferred)
	t.set("oca.mean_round_batches", "count", share(covered, rounds))
	t.set("oca.locality_mean", "ratio", share(localitySum, n))
	t.set("compute.share_of_batch", "ratio", share(float64(computeTotal), float64(facadeWall)))

	var deletes, dups int
	for _, b := range t.batches {
		seen := make(map[[2]graph.VertexID]struct{}, len(b.Edges))
		for _, e := range b.Edges {
			if e.Delete {
				deletes++
			}
			k := [2]graph.VertexID{e.Src, e.Dst}
			if _, dup := seen[k]; dup {
				dups++
			}
			seen[k] = struct{}{}
		}
	}
	t.set("update.delete_share", "ratio", float64(deletes)/float64(t.edges))
	t.set("update.dup_share", "ratio", float64(dups)/float64(t.edges))
}

// updateAndGraph runs each update engine over the batches on a store of
// its own, then reads the stores they built.
func (t *tracer) updateAndGraph() {
	// engineTime applies every batch under a span and sums the update
	// time the engine reports; then, when not nil, runs after each batch.
	engineTime := func(name string, apply func(*graph.Batch) update.Stats, then func(i int, b *graph.Batch)) time.Duration {
		var d time.Duration
		for i, b := range t.batches {
			id := t.rec.start(name, -1, i)
			st := apply(b)
			t.rec.end(id)
			d += st.Update // the sort, where there is one, is the reorder layer's
			if then != nil {
				then(i, b)
			}
		}
		return d
	}
	heapBefore := liveHeapMB()
	store := graph.NewAdjacencyStore(t.vertices)
	base := &update.Baseline{Cfg: update.Config{Workers: t.workers}}
	t.set("update.baseline_ns_per_edge", "ns/edge", t.perEdge(engineTime("update.Baseline.Apply", func(b *graph.Batch) update.Stats {
		return base.Apply(store, b)
	}, nil)))
	final := store.NumEdges()
	t.set("graph.edges_final", "count", float64(final))
	t.set("graph.bytes_per_edge", "B/edge", share((liveHeapMB()-heapBefore)*1e6, float64(final)))

	scan := func(name string, g graph.Store) float64 {
		n := 0
		id := t.rec.start(name, -1, -1)
		for v := 0; v < g.NumVertices(); v++ {
			g.ForEachOut(graph.VertexID(v), func(graph.Neighbor) { n++ })
		}
		d := t.rec.end(id)
		scanSink += n
		return share(float64(d.Nanoseconds()), float64(n))
	}
	t.set("graph.scan_ns_per_edge", "ns/edge", scan("graph.ForEachOut.sweep", store))
	probes, hits := 0, 0
	id := t.rec.start("graph.HasEdge.probes", -1, -1)
	for _, b := range t.batches {
		for j := 0; j < len(b.Edges); j += 8 {
			if store.HasEdge(b.Edges[j].Src, b.Edges[j].Dst) {
				hits++
			}
			probes++
		}
	}
	t.set("graph.probe_ns", "ns", share(float64(t.rec.end(id).Nanoseconds()), float64(probes)))
	scanSink += hits
	static := &compute.PageRank{Workers: t.workers}
	id = t.rec.start("compute.PageRank.Update.static", -1, -1)
	static.Update(store)
	t.set("compute.static_recompute_ms", "ms", ms(t.rec.end(id)))

	// The compute layer on this input, whether or not the workload is
	// configured with analytics: one incremental PageRank round after
	// each of the first computeRounds batches, no aggregation, while the
	// reordered engine builds its store. The engine reports its own
	// update time, so the rounds in between do not count towards it.
	store = graph.NewAdjacencyStore(t.vertices)
	usc := &update.Reordered{Cfg: update.Config{Workers: t.workers}, USC: true}
	pr := &compute.PageRank{Incremental: true, Workers: t.workers}
	var roundMs []float64
	var rounds time.Duration
	roundEdges := 0
	t.set("update.rousc_ns_per_edge", "ns/edge", t.perEdge(engineTime("update.Reordered.Apply", func(b *graph.Batch) update.Stats {
		return usc.Apply(store, b)
	}, func(i int, b *graph.Batch) {
		if i >= computeRounds {
			return
		}
		roundEdges += len(b.Edges)
		id := t.rec.start("compute.PageRank.Update", -1, i)
		pr.Update(store, b)
		d := t.rec.end(id)
		rounds += d
		roundMs = append(roundMs, ms(d))
	})))
	t.set("compute.round_ms_p50", "ms", p50(roundMs))
	t.set("compute.ns_per_batch_edge", "ns/edge", share(float64(rounds.Nanoseconds()), float64(roundEdges)))
	store = nil

	es := graph.NewEpochStore(t.vertices, graph.EpochOptions{})
	epoch := &update.EpochEngine{Cfg: update.Config{Workers: t.workers}}
	t.set("update.epoch_ns_per_edge", "ns/edge", t.perEdge(engineTime("update.EpochEngine.Apply", func(b *graph.Batch) update.Stats {
		st, _ := epoch.Apply(es, b)
		return st
	}, nil)))
	snap := es.Snapshot()
	t.set("graph.epoch_scan_ns_per_edge", "ns/edge", scan("graph.EpochSnapshot.sweep", snap))
	snap.Release()
}

// reorderLayer sorts every batch both ways, as the reordered engine
// does before it applies anything.
func (t *tracer) reorderLayer() {
	var d time.Duration
	var runs int
	var maxShare float64
	before := memStats()
	for i, b := range t.batches {
		id := t.rec.start("reorder.Reorder", -1, i)
		r := reorder.Reorder(b, t.workers)
		d += t.rec.end(id)
		longest := 0
		dst := r.RunsByDst()
		for _, run := range dst {
			longest = max(longest, run.Len())
		}
		runs += len(dst)
		maxShare += float64(longest) / float64(len(b.Edges))
	}
	after := memStats()
	t.set("reorder.ns_per_edge", "ns/edge", t.perEdge(d))
	t.set("reorder.alloc_b_per_edge", "B/edge", float64(after.TotalAlloc-before.TotalAlloc)/float64(t.edges))
	t.set("reorder.mean_dst_run_len", "count", share(float64(t.edges), float64(runs)))
	t.set("reorder.max_dst_run_share", "ratio", maxShare/float64(len(t.batches)))
}

// abrLayer prices ABR's measurement on a batch that was not reordered.
func (t *tracer) abrLayer() {
	var d time.Duration
	for i, b := range t.batches {
		id := t.rec.start("abr.CollectConcurrent", -1, i)
		abr.CollectConcurrent(b, abr.DefaultParams.Lambda, t.workers)
		d += t.rec.end(id)
	}
	t.set("abr.instrument_ns_per_edge", "ns/edge", t.perEdge(d))
}

// shardLayer routes the batches across two shards. No end-to-end
// workload is sharded (the facade's defaults exclude it), so these are
// the baseline for when one is.
func (t *tracer) shardLayer() {
	pcfg := pipelineConfig(streamgraph.Config{}, t.workers)
	r := shard.New(shard.Config{Shards: 2, Vertices: t.vertices, Pipeline: pcfg})
	var split, apply time.Duration
	routed := 0
	for i, b := range t.batches {
		id := t.rec.start("shard.Router.Split", -1, i)
		parts := r.Split(b)
		split += t.rec.end(id)
		for _, p := range parts {
			routed += len(p)
		}
		t.attempted++
		id = t.rec.start("shard.Router.Apply", -1, i)
		_, err := r.Apply(b)
		apply += t.rec.end(id)
		if err != nil {
			t.failed++
		}
	}
	t.set("shard.split_ns_per_edge", "ns/edge", t.perEdge(split))
	t.set("shard.apply_ns_per_edge", "ns/edge", t.perEdge(apply))
	t.set("shard.mirror_ratio", "ratio", float64(routed)/float64(t.edges))
	var most, total int64
	rep := r.Report()
	for _, s := range rep.PerShard {
		most = max(most, s.Edges)
		total += s.Edges
	}
	t.set("shard.imbalance", "ratio", share(float64(most)*float64(len(rep.PerShard)), float64(total)))
}

// obsLayer runs the facade twice more, with the observer and without,
// and reports what observing costs. It returns the wall time of the
// pass configured as the workload is: unlike the first facade pass this
// one ran on a grown heap, as the replays do, so it is the one they are
// compared with.
func (t *tracer) obsLayer() time.Duration {
	on, off := t.w.config(), t.w.config()
	asConfigured := on.Observer != nil
	if !asConfigured {
		on.Observer = streamgraph.NewObserver(256)
	}
	off.Observer = nil
	_, without, _ := t.facade(off, false)
	_, with, _ := t.facade(on, false)
	t.set("obs.overhead_share", "ratio", share(float64(with-without), float64(without)))
	if asConfigured {
		return with
	}
	return without
}

// serverLayer sends every batch through internal/server: the decoder
// alone, the handler without a network, and the handler behind a
// loopback connection.
func (t *tracer) serverLayer() {
	bodies := encodeBodies(t.batches)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	t.set("server.body_bytes_per_edge", "B/edge", float64(total)/float64(t.edges))

	// sgserve's limits; ParseBatch takes them as given.
	limits := server.Options{MaxBatchEdges: 1 << 20, MaxVertex: 1 << 26}
	var decode time.Duration
	before := memStats()
	for i, body := range bodies {
		t.attempted++
		id := t.rec.start("server.ParseBatch", -1, i)
		_, err := server.ParseBatch(bytes.NewReader(body), limits)
		decode += t.rec.end(id)
		if err != nil {
			t.failed++
		}
	}
	after := memStats()
	t.set("server.decode_ns_per_edge", "ns/edge", t.perEdge(decode))
	t.set("server.decode_alloc_b_per_edge", "B/edge", float64(after.TotalAlloc-before.TotalAlloc)/float64(t.edges))

	srv := server.NewWithOptions(streamgraph.New(t.w.config()), server.Options{})
	serve := func(name, method, url string, body []byte, batch int) float64 {
		t.attempted++
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		id := t.rec.start(name, -1, batch)
		srv.ServeHTTP(rr, req)
		d := t.rec.end(id)
		if rr.Code != http.StatusOK {
			t.failed++
		}
		return ms(d)
	}
	var handlerMs, queryUs []float64
	for i, body := range bodies {
		handlerMs = append(handlerMs, serve("server.ServeHTTP POST /batch", http.MethodPost, "/batch", body, i))
		for j := 0; j < getsPerPost; j++ {
			queryUs = append(queryUs, 1000*serve("server.ServeHTTP GET", http.MethodGet, queryURL("", t.batches[i], j), nil, i))
		}
	}
	t.set("server.handler_ms_p50", "ms", p50(handlerMs))
	t.set("server.query_handler_us_p50", "us", p50(queryUs))

	// Behind a loopback connection, with the handler timed on the
	// server side of it: what is left of the client's time is the
	// transport (connection, HTTP framing, body copy).
	inner := server.NewWithOptions(streamgraph.New(t.w.config()), server.Options{})
	var handlerNs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h0 := time.Now()
		inner.ServeHTTP(w, r)
		handlerNs.Store(int64(time.Since(h0)))
	}))
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	var transportMs []float64
	for i, body := range bodies {
		t.attempted++
		id := t.rec.start("http POST /batch", -1, i)
		_, ok := postBatch(c, ts.URL, body)
		d := t.rec.end(id)
		transportMs = append(transportMs, ms(d-time.Duration(handlerNs.Load())))
		if !ok {
			t.failed++
		}
	}
	t.set("server.transport_ms_p50", "ms", p50(transportMs))
}

// computeRounds is how many compute rounds the compute layer's replay
// runs: a round on a hub-heavy graph takes a tenth of a second, and a
// traced run has a dozen other passes to fit in.
const computeRounds = 20

// ladderPosts is how many POSTs each rate of the serving ladder sends:
// enough for p95 to have ten samples beyond it.
const ladderPosts = 240

// serveLadder runs a served workload open loop at three fixed rates,
// each on a fresh server, and reports the latency at each, the highest
// rate that holds the limit without failures or a backlog, and how late
// the generator itself ran. These exist for a served workload only, so
// they are printed with its traced run and are not per-layer metrics,
// which every workload has to report.
func (t *tracer) serveLadder() {
	if !t.w.serve {
		return
	}
	t.ladder = make(map[string]metric)
	set := func(name, unit string, v float64) { t.ladder[name] = metric{Value: v, Unit: unit} }
	bodies := encodeBodies(t.lap)
	lo := t.w.warm
	maxOK := 0.0
	for _, step := range []struct {
		rate int
		name string
	}{{rateLow, "serve.p95_ms_r1"}, {rateGated, "serve.p95_ms_r2"}, {rateHigh, "serve.p95_ms_r3"}} {
		rg := newRig(t.w.config())
		t.attempted += t.w.warm
		t.failed += warmRig(rg, bodies[:lo])
		id := t.rec.start(fmt.Sprintf("serve.openPhase.%d", step.rate), -1, -1)
		p := openPhase(rg, t.lap[lo:lo+ladderPosts], bodies[lo:lo+ladderPosts], step.rate)
		t.rec.end(id)
		rg.close()
		t.attempted += p.post.attempted + p.get.attempted
		t.failed += p.post.failed + p.get.failed
		p95, _ := percentile(sortedCopy(p.post.latencyMs), 0.95)
		set(step.name, "ms", p95)
		if p95 <= postLimitMs && p.post.failed+p.get.failed == 0 && p.post.backlogEnd <= 2 {
			maxOK = float64(step.rate)
		}
		switch step.rate {
		case rateGated:
			lag, _ := percentile(sortedCopy(append(p.post.lagMs, p.get.lagMs...)), 0.99)
			set("loadgen.lag_p99_ms", "ms", lag)
			set("loadgen.backlog_max", "count", float64(max(p.post.backlogMax, p.get.backlogMax)))
		case rateHigh:
			set("server.rejected_share", "ratio", share(float64(p.rejected), float64(p.post.attempted)))
		}
	}
	set("serve.max_ok_rate", "1/s", maxOK)
}

// Package server implements the HTTP API of cmd/sgserve: streaming
// edge ingestion, analytics queries, and snapshotting over a
// streamgraph.System.
//
// The ingestion path is hardened for concurrent clients: a bounded
// admission queue rejects overflow with 429 + Retry-After instead of
// queueing unboundedly, every request that needs the (sequential)
// system honors a deadline and fails with 503 instead of wedging, and
// each batch runs behind the pipeline's panic isolation boundary so a
// poisoned batch returns 503 with the store consistent and the server
// fully usable. Queue occupancy feeds the pipeline's load-shed ladder
// as its pressure signal.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"streamgraph"
)

// Options bound the ingestion path. The zero value of each field
// selects the default, so Options{} is a fully hardened server.
type Options struct {
	// QueueDepth is the admission queue capacity: the maximum number
	// of batch requests in house (one processing + the rest waiting).
	// Further batches get 429. Default 64.
	QueueDepth int
	// QueueTimeout bounds how long any request waits for the system
	// before failing with 503. Default 10s.
	QueueTimeout time.Duration
	// MaxBatchEdges rejects larger batches with 400. Default 1<<20.
	MaxBatchEdges int
	// MaxVertex rejects batches naming vertex IDs above it with 400,
	// bounding on-demand store growth. Default 1<<26.
	MaxVertex uint32
	// MaxBodyBytes caps the request body. Default 8<<20.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 10 * time.Second
	}
	if o.MaxBatchEdges == 0 {
		o.MaxBatchEdges = 1 << 20
	}
	if o.MaxVertex == 0 {
		o.MaxVertex = 1 << 26
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return o
}

// EdgeJSON is the wire form of one edge.
type EdgeJSON struct {
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
	Delete bool    `json:"delete,omitempty"`
}

// BatchResponse reports one ingested batch.
type BatchResponse struct {
	BatchID         int     `json:"batchId"`
	Reordered       bool    `json:"reordered"`
	Instrumented    bool    `json:"instrumented"`
	CAD             float64 `json:"cad,omitempty"`
	Locality        float64 `json:"locality"`
	UpdateMicros    int64   `json:"updateMicros"`
	ComputeMicros   int64   `json:"computeMicros"`
	ComputedBatches int     `json:"computedBatches"`
}

// Server serves the streaming graph API. The system's execution model
// is sequential, so requests that touch it serialize on a processing
// token; the bounded admission queue in front of the token is what
// turns overload into fast 429s instead of unbounded goroutine pileup.
type Server struct {
	sys  *streamgraph.System
	obs  *streamgraph.Observer
	opts Options
	mux  *http.ServeMux

	// admit is the bounded admission queue: a batch request holds one
	// slot from acceptance to response. proc is the processing token
	// serializing all system access; capacity 1 so it can be acquired
	// in a select with a deadline.
	admit chan struct{}
	proc  chan struct{}

	// statsMu guards the ingestion counters below (server-level, not
	// registered in the observer's registry so restarting a server on
	// a shared observer cannot collide on metric names).
	statsMu   sync.Mutex
	batches   int //sglint:guard statsMu
	reordered int //sglint:guard statsMu
	rounds    int //sglint:guard statsMu
	rejected  int //sglint:guard statsMu
	timeouts  int //sglint:guard statsMu
	panics    int //sglint:guard statsMu
	// batchEWMA is the exponentially weighted moving average of
	// observed wall-clock batch processing time; it feeds the derived
	// Retry-After estimate. Zero until the first batch completes.
	batchEWMA time.Duration //sglint:guard statsMu
}

// ewmaAlpha is the smoothing factor for the per-batch latency EWMA.
const ewmaAlpha = 0.3

// observeBatch folds one batch's wall-clock processing time into the
// latency EWMA.
func (s *Server) observeBatch(d time.Duration) {
	s.statsMu.Lock()
	if s.batchEWMA == 0 {
		s.batchEWMA = d
	} else {
		s.batchEWMA = time.Duration(ewmaAlpha*float64(d) + (1-ewmaAlpha)*float64(s.batchEWMA))
	}
	s.statsMu.Unlock()
}

// retryAfterSecs estimates how long a rejected or timed-out client
// should back off: the batches already in house each take roughly
// perBatch to drain, so the estimate is (queued+1)·perBatch rounded up
// to whole seconds and clamped to [1, 30]. With no latency observation
// yet it returns the floor.
func retryAfterSecs(queued int, perBatch time.Duration) int {
	if perBatch <= 0 {
		return 1
	}
	wait := time.Duration(queued+1) * perBatch
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// retryAfter derives the Retry-After header value from current queue
// occupancy and the observed per-batch latency.
func (s *Server) retryAfter() string {
	s.statsMu.Lock()
	per := s.batchEWMA
	s.statsMu.Unlock()
	return strconv.Itoa(retryAfterSecs(len(s.admit), per))
}

// New wraps sys in an HTTP handler with default hardening (see
// Options). When the system carries an observer (Config.Observer),
// /metrics additionally exposes its full registry and /trace serves
// its per-batch decision traces.
func New(sys *streamgraph.System) *Server {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions wraps sys with explicit ingestion bounds, and
// attaches the server's queue occupancy to the system as its load-shed
// pressure source. The server assumes sole ownership of the system:
// all access must go through its handlers.
func NewWithOptions(sys *streamgraph.System, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		sys:   sys,
		obs:   sys.Observer(),
		opts:  opts,
		mux:   http.NewServeMux(),
		admit: make(chan struct{}, opts.QueueDepth),
		proc:  make(chan struct{}, 1),
	}
	sys.SetPressureSource(s.Pressure)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
	s.mux.HandleFunc("GET /rank", s.vertexQuery(func(v streamgraph.VertexID) (string, float64) {
		return "rank", s.sys.Rank(v)
	}))
	s.mux.HandleFunc("GET /distance", s.vertexQuery(func(v streamgraph.VertexID) (string, float64) {
		return "distance", s.sys.Distance(v)
	}))
	s.mux.HandleFunc("GET /level", s.vertexQuery(func(v streamgraph.VertexID) (string, float64) {
		return "level", float64(s.sys.Level(v))
	}))
	s.mux.HandleFunc("GET /component", s.vertexQuery(func(v streamgraph.VertexID) (string, float64) {
		return "component", float64(s.sys.Component(v))
	}))
	s.mux.HandleFunc("GET /neighbors", s.handleNeighbors)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("GET /trace/spans", s.handleTraceSpans)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Pressure reports admission-queue occupancy in [0, 1] as the
// load-shed ladder's input. The request currently holding the
// processing token also holds an admission slot, so one slot is
// subtracted: pressure measures who is *waiting*, and an otherwise
// idle server processing one batch reports 0.
func (s *Server) Pressure() float64 {
	n := len(s.admit) - 1
	if n < 0 {
		n = 0
	}
	return float64(n) / float64(cap(s.admit))
}

// acquire takes the processing token, honoring the request deadline
// and the queue timeout. ok=false means the token never transferred
// (the system was never touched); the caller must 503.
func (s *Server) acquire(r *http.Request) (release func(), ok bool) {
	timer := time.NewTimer(s.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case s.proc <- struct{}{}:
		return func() { <-s.proc }, true
	case <-r.Context().Done():
		return nil, false
	case <-timer.C:
		return nil, false
	}
}

// ParseBatch decodes and validates one batch body under opts' limits:
// well-formed JSON with no trailing data, 1..MaxBatchEdges edges,
// vertex IDs within MaxVertex, finite weights (zero weight means 1, as
// before). Exported for the FuzzBatchRequest corpus to hit directly.
func ParseBatch(r io.Reader, opts Options) ([]streamgraph.Edge, error) {
	dec := json.NewDecoder(r)
	var in []EdgeJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("bad batch JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("bad batch JSON: trailing data after batch array")
	}
	if len(in) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(in) > opts.MaxBatchEdges {
		return nil, fmt.Errorf("batch of %d edges exceeds limit %d", len(in), opts.MaxBatchEdges)
	}
	edges := make([]streamgraph.Edge, len(in))
	for i, e := range in {
		if e.Src > opts.MaxVertex || e.Dst > opts.MaxVertex {
			return nil, fmt.Errorf("edge %d: vertex ID exceeds limit %d", i, opts.MaxVertex)
		}
		w64 := float64(e.Weight)
		if math.IsNaN(w64) || math.IsInf(w64, 0) {
			return nil, fmt.Errorf("edge %d: non-finite weight", i)
		}
		weight := streamgraph.Weight(e.Weight)
		if weight == 0 {
			weight = 1
		}
		edges[i] = streamgraph.Edge{
			Src:    streamgraph.VertexID(e.Src),
			Dst:    streamgraph.VertexID(e.Dst),
			Weight: weight,
			Delete: e.Delete,
		}
	}
	return edges, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	// One trace ID per ingest request: the parse and admission spans
	// recorded here (batch ID -1 — no batch exists yet) join the span
	// tree the pipeline builds once the batch is created.
	traceID := s.obs.NextTraceID()
	ingest := s.obs.StartSpan(traceID, -1, "ingest")
	edges, err := ParseBatch(r.Body, s.opts)
	ingest.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Admission: non-blocking. A full queue answers 429 immediately —
	// overload is the client's signal to back off, not the server's
	// cue to accumulate goroutines. The admission span covers queue
	// entry through processing-token acquisition: the time the batch
	// spent waiting, the quantity the load-shed ladder keys on.
	admission := s.obs.StartSpan(traceID, -1, "admission")
	select {
	case s.admit <- struct{}{}:
	default:
		admission.End()
		s.statsMu.Lock()
		s.rejected++
		s.statsMu.Unlock()
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.admit }()

	release, ok := s.acquire(r)
	admission.End()
	if !ok {
		// The token never transferred: the batch was NOT applied, so
		// the client may safely retry.
		s.statsMu.Lock()
		s.timeouts++
		s.statsMu.Unlock()
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout: batch not applied", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	res, aerr := s.sys.ApplyBatchIsolatedTraced(edges, traceID)
	release()
	s.observeBatch(time.Since(start))

	if aerr != nil {
		// The pipeline recovered a panic: the store is consistent
		// (injection and isolation are pre-mutation, and batch
		// re-application is idempotent), the runner is usable, and the
		// client may retry the same batch.
		s.statsMu.Lock()
		s.panics++
		s.statsMu.Unlock()
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "batch failed: "+aerr.Error(), http.StatusServiceUnavailable)
		return
	}
	s.statsMu.Lock()
	s.batches++
	if res.Reordered {
		s.reordered++
	}
	if res.ComputedBatches > 0 {
		s.rounds++
	}
	s.statsMu.Unlock()
	writeJSON(w, BatchResponse{
		BatchID:         res.BatchID,
		Reordered:       res.Reordered,
		Instrumented:    res.Instrumented,
		CAD:             res.CAD,
		Locality:        res.Locality,
		UpdateMicros:    res.Update.Microseconds(),
		ComputeMicros:   res.Compute.Microseconds(),
		ComputedBatches: res.ComputedBatches,
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(r)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout", http.StatusServiceUnavailable)
		return
	}
	err := s.sys.FlushIsolated()
	release()
	if err != nil {
		s.statsMu.Lock()
		s.panics++
		s.statsMu.Unlock()
		http.Error(w, "flush failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]string{"status": "flushed"})
}

// vertexQuery builds a handler answering per-vertex analytics.
func (s *Server) vertexQuery(get func(streamgraph.VertexID) (string, float64)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query().Get("v")
		v, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			http.Error(w, "bad or missing vertex parameter v", http.StatusBadRequest)
			return
		}
		release, ok := s.acquire(r)
		if !ok {
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, "queue timeout", http.StatusServiceUnavailable)
			return
		}
		name, val := get(streamgraph.VertexID(v))
		release()
		out := map[string]any{"vertex": v}
		if math.IsInf(val, 1) {
			out[name] = "unreachable"
		} else {
			out[name] = val
		}
		writeJSON(w, out)
	}
}

// NeighborJSON is the wire form of one adjacency entry.
type NeighborJSON struct {
	ID     uint32  `json:"id"`
	Weight float32 `json:"weight"`
}

// handleNeighbors serves a vertex's out- and in-adjacency. On a
// lock-free system the read comes from a pinned epoch snapshot and
// bypasses the processing token entirely — it answers while a batch
// is mid-ingest, which is the point of the epoch-based hot path. On a
// locked system it serializes on the token like every other read.
func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("v")
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		http.Error(w, "bad or missing vertex parameter v", http.StatusBadRequest)
		return
	}
	if !s.sys.LockFree() {
		release, ok := s.acquire(r)
		if !ok {
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, "queue timeout", http.StatusServiceUnavailable)
			return
		}
		defer release()
	}
	g, release := s.sys.GraphSnapshot()
	defer release()
	vid := streamgraph.VertexID(v)
	out := []NeighborJSON{}
	in := []NeighborJSON{}
	// An out-of-range vertex still answers 200 — the query itself is
	// well-formed — but with "known": false, so clients can tell "no
	// such vertex yet" apart from a real isolated vertex (known, empty
	// adjacency). Known vertices report "known": true.
	known := int(v) < g.NumVertices()
	if known {
		g.ForEachOut(vid, func(n streamgraph.Neighbor) {
			out = append(out, NeighborJSON{ID: uint32(n.ID), Weight: float32(n.Weight)})
		})
		g.ForEachIn(vid, func(n streamgraph.Neighbor) {
			in = append(in, NeighborJSON{ID: uint32(n.ID), Weight: float32(n.Weight)})
		})
	}
	writeJSON(w, map[string]any{"vertex": v, "known": known, "out": out, "in": in})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(r)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout", http.StatusServiceUnavailable)
		return
	}
	// Take the metrics snapshot and the graph gauges under the SAME
	// token hold: snapshotting before acquiring would let a batch land
	// in between, reporting vertices/edges one batch ahead of
	// updateSeconds/computeSeconds.
	m := s.sys.MetricsSnapshot()
	vertices, edges := s.sys.NumVertices(), s.sys.NumEdges()
	release()
	s.statsMu.Lock()
	batches := s.batches
	s.statsMu.Unlock()
	writeJSON(w, map[string]any{
		"vertices": vertices,
		"edges":    edges,
		"batches":  batches,
		// measuredBatches counts the per-batch metric records behind
		// updateSeconds/computeSeconds — always consistent with the
		// gauges above, unlike "batches" which counts this server
		// instance's accepted requests.
		"measuredBatches": len(m.Batches),
		"updateSeconds":   m.UpdateSeconds(),
		"computeSeconds":  m.ComputeSeconds(),
	})
}

// handleMetrics exposes the full metric set in the Prometheus text
// format: the server's own ingestion and robustness counters and graph
// gauges, plus — when the system carries an observer — every registry
// metric (pipeline stage latencies, ABR/OCA decision series, panic and
// shed counters, update-engine work counters).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(r)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout", http.StatusServiceUnavailable)
		return
	}
	edges, vertices := s.sys.NumEdges(), s.sys.NumVertices()
	release()
	s.statsMu.Lock()
	batches, reordered, rounds := s.batches, s.reordered, s.rounds
	rejected, timeouts, panics := s.rejected, s.timeouts, s.panics
	s.statsMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP streamgraph_batches_total Batches ingested.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_batches_total counter\n")
	fmt.Fprintf(w, "streamgraph_batches_total %d\n", batches)
	fmt.Fprintf(w, "# HELP streamgraph_reordered_batches_total Batches run in the reordered mode.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_reordered_batches_total counter\n")
	fmt.Fprintf(w, "streamgraph_reordered_batches_total %d\n", reordered)
	fmt.Fprintf(w, "# HELP streamgraph_compute_rounds_total Computation rounds scheduled (OCA may cover two batches per round).\n")
	fmt.Fprintf(w, "# TYPE streamgraph_compute_rounds_total counter\n")
	fmt.Fprintf(w, "streamgraph_compute_rounds_total %d\n", rounds)
	fmt.Fprintf(w, "# HELP streamgraph_server_rejected_total Batches rejected with 429 (admission queue full).\n")
	fmt.Fprintf(w, "# TYPE streamgraph_server_rejected_total counter\n")
	fmt.Fprintf(w, "streamgraph_server_rejected_total %d\n", rejected)
	fmt.Fprintf(w, "# HELP streamgraph_server_queue_timeouts_total Requests failed with 503 waiting for the system.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_server_queue_timeouts_total counter\n")
	fmt.Fprintf(w, "streamgraph_server_queue_timeouts_total %d\n", timeouts)
	fmt.Fprintf(w, "# HELP streamgraph_server_panic_batches_total Batches failed with 503 after a recovered pipeline panic.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_server_panic_batches_total counter\n")
	fmt.Fprintf(w, "streamgraph_server_panic_batches_total %d\n", panics)
	fmt.Fprintf(w, "# HELP streamgraph_server_queue_depth Admission queue slots currently held.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_server_queue_depth gauge\n")
	fmt.Fprintf(w, "streamgraph_server_queue_depth %d\n", len(s.admit))
	fmt.Fprintf(w, "# HELP streamgraph_edges Current directed edge count.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_edges gauge\n")
	fmt.Fprintf(w, "streamgraph_edges %d\n", edges)
	fmt.Fprintf(w, "# HELP streamgraph_vertices Current vertex-space size.\n")
	fmt.Fprintf(w, "# TYPE streamgraph_vertices gauge\n")
	fmt.Fprintf(w, "streamgraph_vertices %d\n", vertices)
	if s.obs != nil {
		s.obs.Registry.WritePrometheus(w)
	}
}

// handleMetricsJSON serves the pre-observability ad-hoc JSON payload
// (the server counters, now including the robustness set), extended
// with a summary snapshot of every registry metric when an observer is
// attached.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(r)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout", http.StatusServiceUnavailable)
		return
	}
	edges, vertices := s.sys.NumEdges(), s.sys.NumVertices()
	shadow := s.sys.ShadowReport()
	sharded := s.sys.Sharded()
	var shardRep streamgraph.ShardReport
	if sharded {
		shardRep = s.sys.ShardReport()
	}
	release()
	s.statsMu.Lock()
	out := map[string]any{
		"batches":       s.batches,
		"reordered":     s.reordered,
		"computeRounds": s.rounds,
		"rejected":      s.rejected,
		"queueTimeouts": s.timeouts,
		"panicBatches":  s.panics,
		"edges":         edges,
		"vertices":      vertices,
	}
	s.statsMu.Unlock()
	if shadow.Kind != "" {
		out["storeShadow"] = shadow
	}
	if sharded {
		out["shards"] = shardRep
	}
	if s.obs != nil {
		out["metrics"] = s.obs.Registry.Snapshot()
		out["traceDropped"] = map[string]any{
			"decisions": s.obs.TraceDroppedDecisions.Value(),
			"spans":     s.obs.TraceDroppedSpans.Value(),
		}
	}
	writeJSON(w, out)
}

// handleTrace serves the most recent per-batch pipeline traces (ABR
// and OCA decisions with the values they compared, shed levels,
// recovered panics, per-stage spans). ?n= bounds the count; default
// and maximum are the ring capacity.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Traces == nil {
		http.Error(w, "tracing disabled: server started without an observer",
			http.StatusNotFound)
		return
	}
	n := 0 // all stored traces
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, "bad trace count parameter n", http.StatusBadRequest)
			return
		}
		n = v
	}
	traces := s.obs.Traces.Last(n)
	if traces == nil {
		traces = []streamgraph.BatchTrace{}
	}
	writeJSON(w, traces)
}

// handleTraceSpans streams the span flight recorder as JSON lines
// (newest last): one SpanEvent per line, the same format as the
// sgserve -span-log file sink. ?n= bounds the count; default and
// maximum are the ring capacity.
func (s *Server) handleTraceSpans(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.Spans == nil {
		http.Error(w, "span tracing disabled: server started without an observer",
			http.StatusNotFound)
		return
	}
	n := 0 // all stored events
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, "bad span count parameter n", http.StatusBadRequest)
			return
		}
		n = v
	}
	events := s.obs.Spans.Last(n)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return
		}
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire(r)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "queue timeout", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="graph.sgsnap"`)
	err := s.sys.WriteSnapshot(w)
	release()
	if err != nil {
		// Headers are out; all we can do is log-style report.
		fmt.Fprintf(w, "\nsnapshot error: %v\n", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

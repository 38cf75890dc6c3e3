package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"streamgraph"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if v, ok := percentile(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples was accepted; nine samples lie beyond it")
	}
	if v, ok := percentile(seq(1000), 0.50); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", v, ok)
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v, %v", v, ok)
	}
	if _, ok := percentile(seq(200), 0.95); !ok {
		t.Error("p95 of 200 samples was refused; ten samples lie beyond it")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestMixSeed(t *testing.T) {
	seen := map[int64]string{}
	for _, w := range []string{"hub-ingest", "flat-ingest"} {
		for seed := int64(1); seed <= 3; seed++ {
			for lap := 0; lap < 50; lap++ {
				s := mixSeed(seed, w, lap)
				if s != mixSeed(seed, w, lap) {
					t.Fatalf("mixSeed(%d, %s, %d) is not deterministic", seed, w, lap)
				}
				if s < 0 {
					t.Fatalf("mixSeed(%d, %s, %d) = %d, negative", seed, w, lap, s)
				}
				key := fmt.Sprintf("%s/%d/%d", w, seed, lap)
				if other, dup := seen[s]; dup {
					t.Fatalf("mixSeed gives %d for both %s and %s", s, other, key)
				}
				seen[s] = key
			}
		}
	}
}

// A scripted sequence of ComputedBatches: warm-up batches are handed in
// untimed, rounds cover the newest n pending batches, the flush covers
// the rest.
func TestFreshTrackerAttribution(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	var f freshTracker
	f.handed(time.Time{}) // warm-up batch, deferred
	f.handed(at(0))       // batch 0, deferred
	f.handed(at(10))      // batch 1: its round covers warm-up + 0 + 1
	if got := f.covered(3, at(25)); !equal(got, []float64{25, 15}) {
		t.Errorf("round over warm-up, batch 0, batch 1 = %v, want [25 15]", got)
	}
	f.handed(at(30)) // batch 2, deferred
	f.handed(at(40)) // batch 3, deferred
	f.handed(at(50)) // batch 4: its round covers only the newest two
	if got := f.covered(2, at(65)); !equal(got, []float64{25, 15}) {
		t.Errorf("round over batches 3 and 4 = %v, want [25 15]", got)
	}
	if got := f.covered(0, at(100)); !equal(got, []float64{70}) {
		t.Errorf("flush = %v, want batch 2 at [70]", got)
	}
	f.handed(at(110))
	if got := f.covered(5, at(120)); !equal(got, []float64{10}) {
		t.Errorf("a round cannot cover more than is pending: got %v, want [10]", got)
	}
	if got := f.covered(0, at(130)); len(got) != 0 {
		t.Errorf("nothing is pending, flush = %v", got)
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// simClock is simulated time: waiting and serving only move the hands.
type simClock struct{ t time.Time }

func (c *simClock) now() time.Time { return c.t }
func (c *simClock) waitUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// A server that stalls for 200 ms delays every request that comes due
// meanwhile. A closed loop would record one slow request; the open loop
// must charge the stall to all of them.
func TestOpenLoopChargesStallToEveryDueRequest(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &simClock{t: time.Unix(2000, 0)}
	start := clk.t
	r := openLoop(clk, start, interval, 60, func(i int, _ time.Time) bool {
		service := time.Millisecond
		if i == 5 {
			service = 200 * time.Millisecond
		}
		clk.t = clk.t.Add(service)
		return true
	})
	if r.attempted != 60 || r.failed != 0 || len(r.latencyMs) != 60 {
		t.Fatalf("attempted %d failed %d samples %d", r.attempted, r.failed, len(r.latencyMs))
	}
	stallEnd := 50.0 + 200.0 // request 5 was due at 50 ms and took 200 ms
	charged := 0
	for i, lat := range r.latencyMs {
		due := float64(i) * 10
		switch {
		case i < 5:
			if lat != 1 {
				t.Errorf("request %d before the stall took %v ms, want 1", i, lat)
			}
		case due <= stallEnd:
			// Due during the stall: it waited at least until the stall
			// ended, and the wait is in its latency.
			if lat < stallEnd-due {
				t.Errorf("request %d was due at %v ms, during the stall, but is charged only %v ms", i, due, lat)
			}
			charged++
		}
	}
	if charged < 20 {
		t.Errorf("the stall was charged to %d requests, want every one of the 21 due during it", charged)
	}
	if last := r.latencyMs[59]; last != 1 {
		t.Errorf("the lane never caught up: the last request took %v ms", last)
	}
	if r.backlogMax < 19 {
		t.Errorf("backlogMax = %d, want at least the 19 requests that queued behind the stall", r.backlogMax)
	}
	if r.backlogEnd != 0 {
		t.Errorf("backlogEnd = %d after the lane caught up", r.backlogEnd)
	}
	// The generator itself was never late: every delay was the lane
	// waiting for a response.
	for i, lag := range r.lagMs {
		if lag != 0 {
			t.Errorf("generator lag of request %d = %v ms, want 0", i, lag)
		}
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	clk := &simClock{t: time.Unix(3000, 0)}
	r := openLoop(clk, clk.t, time.Millisecond, 10, func(i int, _ time.Time) bool { return i%2 == 0 })
	if r.attempted != 10 || r.failed != 5 || len(r.latencyMs) != 5 {
		t.Errorf("attempted %d failed %d samples %d, want 10 5 5", r.attempted, r.failed, len(r.latencyMs))
	}
}

// tiny is a workload small enough for a test: the real generators and
// the real facade, a few hundred edges.
func tiny() *workload {
	return &workload{
		name: "tiny", warm: 1, timed: 6,
		config: func() streamgraph.Config {
			return streamgraph.Config{Vertices: 500, Analytics: streamgraph.AnalyticsPageRank}
		},
		generate: fromAdversarial(gen.AdvMixed, 500, 300),
	}
}

// The correctness gate: the same batches replayed into the reference
// model must match the system, and a single corrupted batch must not.
func TestVerifyGateTripsOnCorruptBatch(t *testing.T) {
	w := tiny()
	batches := w.generate(7, w.lapBatches())
	sys := streamgraph.New(w.config())
	for _, b := range batches {
		if _, err := sys.ApplyBatch(b.Edges); err != nil {
			t.Fatal(err)
		}
	}
	sys.Flush()
	if _, err := verifyGraph(sys.Graph(), batches); err != nil {
		t.Fatalf("the system's own batches diverge: %v", err)
	}
	// Corrupt one batch of the reference's input: one more edge that the
	// system never saw.
	corrupt := append([]*graph.Batch(nil), batches...)
	b := *corrupt[3]
	b.Edges = append(append([]graph.Edge(nil), b.Edges...), graph.Edge{Src: 498, Dst: 499, Weight: 1})
	corrupt[3] = &b
	if _, err := verifyGraph(sys.Graph(), corrupt); err == nil {
		t.Fatal("a corrupted batch passed the correctness gate")
	}

	r := libraryLap(w, 7, true)
	if r.verifyErr != nil || r.failed != 0 {
		t.Fatalf("a clean lap reports verifyErr=%v failed=%d", r.verifyErr, r.failed)
	}
	if len(r.batchMs) != w.timed || len(r.freshMs) != w.timed || len(r.queryMs) != 0 {
		t.Errorf("lap sampled %d batches, %d freshness, %d queries; want %d, %d and none",
			len(r.batchMs), len(r.freshMs), len(r.queryMs), w.timed, w.timed)
	}
}

// A run reports the metrics its workload has: freshness only with
// analytics, queries only when serving, and no p99 from a run too short
// to leave ten samples beyond it.
func TestRunWorkloadReportsTheMetricsItHas(t *testing.T) {
	plain := tiny()
	plain.config = func() streamgraph.Config { return streamgraph.Config{Vertices: 500} }
	for _, tc := range []struct {
		w    *workload
		want []string
	}{
		{tiny(), []string{"setup_s", "edges_per_s", "batch_p50_ms", "fresh_p50_ms", "live_heap_mb"}},
		{plain, []string{"setup_s", "edges_per_s", "batch_p50_ms", "live_heap_mb"}},
	} {
		r := runWorkload(tc.w, 1, 0.05, io.Discard)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Laps == 0 {
			t.Fatalf("run: %+v", r)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("run reports %v, want exactly %v", sortedNames(r.Metrics), tc.want)
		}
		for _, name := range tc.want {
			if got, ok := r.Metrics[name]; !ok || got.Value <= 0 {
				t.Errorf("%s = %+v (present %v), want a positive value", name, got, ok)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	lower := e2eMetric{name: "batch_p50_ms", bound: 0.10}
	higher := e2eMetric{name: "edges_per_s", higherBetter: true, bound: 0.10}
	setup := e2eMetric{name: "setup_s", bound: 0.25}
	for _, tc := range []struct {
		m              e2eMetric
		earlier, later []float64
		want           string
	}{
		{lower, steady, scaled(1.08), "ok"},
		{lower, steady, scaled(1.12), "worse"},
		{lower, steady, scaled(0.5), "ok"},
		{higher, steady, scaled(0.88), "worse"},
		{higher, steady, scaled(1.5), "ok"},
		{lower, steady, noisy, "unresolved"},
		{setup, steady, noisy, "ok"}, // set-up time is judged on medians alone
		{setup, steady, scaled(1.3), "worse"},
		{e2eMetric{name: "batch_p99_ms"}, steady, scaled(2), "ungated"},
	} {
		if got := verdict(tc.m, tc.earlier, tc.later); got != tc.want {
			t.Errorf("verdict(%s, later median %v) = %s, want %s", tc.m.name, median(tc.later), got, tc.want)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json states the workloads, metrics, units, directions and
// bounds a second time; this keeps it in step with the code, and checks
// that a traced run prints exactly the per-layer metrics it lists.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", b.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, %d in the code", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q (%q), code has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var gated []e2eMetric
	for _, m := range endToEnd {
		if m.listed {
			gated = append(gated, m)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics listed, %d in the code", len(b.EndToEnd), len(gated))
	}
	for i, m := range gated {
		e := b.EndToEnd[i]
		better := "lower"
		if m.higherBetter {
			better = "higher"
		}
		if e.Name != m.name || e.Unit != m.unit || e.Better != better || e.Bound != m.bound {
			t.Errorf("end-to-end metric %d: listed %+v, code has %s %s %s %v", i, e, m.name, m.unit, better, m.bound)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s is listed with bound %v; the contract wants one in (0, 0.25]", m.name, m.bound)
		}
	}

	r := tracedRun(tiny(), 1, filepath.Join(t.TempDir(), "trace-tiny.json"))
	if !r.Correct || r.Failed != 0 {
		t.Errorf("traced run of the tiny workload: correct=%v failed=%d %s", r.Correct, r.Failed, r.Problem)
	}
	var listed, printed []string
	for _, m := range b.PerLayer {
		listed = append(listed, m.Name+" "+m.Unit)
	}
	for name, m := range r.Metrics {
		printed = append(printed, name+" "+m.Unit)
	}
	sort.Strings(listed)
	sort.Strings(printed)
	if len(listed) != len(printed) {
		t.Errorf("%d per-layer metrics listed, a traced run prints %d", len(listed), len(printed))
	}
	for i := 0; i < len(listed) && i < len(printed); i++ {
		if listed[i] != printed[i] {
			t.Errorf("per-layer metrics differ: listed %q, printed %q", listed[i], printed[i])
			break
		}
	}
}

func TestTraceFileHoldsSpanTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-tiny.json")
	tracedRun(tiny(), 1, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "tiny" || len(f.Spans) == 0 {
		t.Fatalf("trace file names %q and holds %d spans", f.Workload, len(f.Spans))
	}
	children := 0
	for i, s := range f.Spans {
		if s.ID != i || s.EndNs < s.StartNs {
			t.Fatalf("span %d: %+v", i, s)
		}
		if s.Parent >= 0 {
			p := f.Spans[s.Parent]
			if p.Name != "batch" || p.Batch != s.Batch || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %+v does not lie inside its parent %+v", s, p)
			}
			children++
		}
	}
	if children == 0 {
		t.Error("no span has a parent: the per-batch trees are missing")
	}
}

package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// p99Samples is the fewest samples p99 may be reported from: minBeyond
// samples must lie beyond it.
const p99Samples = minBeyond * 100

// metric is one reported figure. N is how many samples it summarises
// and Q1/Q3 their quartiles (of the pooled samples for a latency, of
// the per-lap values otherwise); they are printed, and only Value and
// Unit are written as JSON, which is all the driver's line may hold.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
	Q1    float64 `json:"-"`
	Q3    float64 `json:"-"`
}

// runResult is one run of one workload. The JSON fields are what a set
// file keeps of it; the driver's line is the last four of them.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Laps      int               `json:"-"`
	// Problem says why Correct is false.
	Problem string `json:"-"`
	// Ladder is the serving ladder a traced run of a served workload
	// adds: printed, but not among the metrics the driver reads.
	Ladder map[string]metric `json:"-"`
}

// e2eMetric is one end-to-end metric and how it is judged: which
// direction is better and by what share of the earlier median it may
// get worse. A bound of 0 means reported but not gated: the metric's
// own spread over ten runs of unchanged code is too wide for any bound
// the contract allows. listed metrics are in BENCHMARK.json and in the
// driver's line: those every workload has and that are gated. fresh_*
// exists only where OCA trades freshness for throughput and query_*
// only where there are queries, so those are printed and compared by
// this program alone. A test keeps BENCHMARK.json in step.
type e2eMetric struct {
	name, unit   string
	higherBetter bool
	bound        float64
	listed       bool
}

// endToEnd lists the end-to-end metrics in print order. README.md has
// the spreads the bounds were derived from.
var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25, true},
	{"edges_per_s", "edges/s", true, 0.20, true},
	{"batch_p50_ms", "ms", false, 0.20, true},
	{"batch_p99_ms", "ms", false, 0, false},
	{"fresh_p50_ms", "ms", false, 0.10, false},
	{"fresh_p99_ms", "ms", false, 0.15, false},
	{"query_p50_ms", "ms", false, 0.15, false},
	{"query_p99_ms", "ms", false, 0, false},
	{"live_heap_mb", "MB", false, 0.03, true},
}

func (w *workload) lap(seed int64, verify bool) lapResult {
	if w.serve {
		return serveLap(w, seed, verify)
	}
	return libraryLap(w, seed, verify)
}

// runWorkload measures one workload for about seconds of wall time:
// whole laps, each on a fresh system and a fresh input, until the next
// lap would not fit. It keeps going past that, up to a quarter more,
// while fewer batches were timed than p99 needs. Lap 0's output is
// checked against the reference model; that check is not timed.
func runWorkload(w *workload, seed int64, seconds float64, log io.Writer) runResult {
	res := runResult{Workload: w.name, Seed: seed, Seconds: seconds, Correct: true}
	var setups, rates, heaps, batch, fresh, query []float64
	budget := time.Duration(seconds * float64(time.Second))
	var spent time.Duration
	for lap := 0; ; lap++ {
		t0 := time.Now()
		r := w.lap(mixSeed(seed, w.name, lap), lap == 0)
		wall := time.Since(t0) - r.verifyWall
		spent += wall
		res.Laps++
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.verifyErr != nil {
			res.Correct = false
			res.Problem = r.verifyErr.Error()
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, r.edgesPerS)
		heaps = append(heaps, r.heapMB)
		batch = append(batch, r.batchMs...)
		fresh = append(fresh, r.freshMs...)
		query = append(query, r.queryMs...)
		next := spent + wall
		if next > budget && (len(batch) >= p99Samples || next > budget+budget/4) {
			break
		}
	}
	if res.Failed > 0 && res.Problem == "" {
		res.Problem = fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted)
	}

	res.Metrics = make(map[string]metric)
	perLap := func(name, unit string, vals []float64) {
		q1, med, q3 := quartiles(vals)
		res.Metrics[name] = metric{Value: med, Unit: unit, N: len(vals), Q1: q1, Q3: q3}
	}
	// pooled reports the median and p99 of a latency over every lap's
	// samples; a workload that does not have the latency reports
	// neither, and a run too short for p99 reports the median alone.
	pooled := func(prefix string, vals []float64) {
		if len(vals) == 0 {
			return
		}
		s := sortedCopy(vals)
		q1, _ := percentile(s, 0.25)
		q3, _ := percentile(s, 0.75)
		p50, _ := percentile(s, 0.50)
		res.Metrics[prefix+"_p50_ms"] = metric{Value: p50, Unit: "ms", N: len(s), Q1: q1, Q3: q3}
		if p99, ok := percentile(s, 0.99); ok {
			res.Metrics[prefix+"_p99_ms"] = metric{Value: p99, Unit: "ms", N: len(s), Q1: q1, Q3: q3}
		} else {
			fmt.Fprintf(log, "%s: no %s_p99_ms: %d samples, and p99 needs %d so that %d lie beyond it\n",
				w.name, prefix, len(s), p99Samples, minBeyond)
		}
	}
	perLap("setup_s", "s", setups)
	perLap("edges_per_s", "edges/s", rates)
	perLap("live_heap_mb", "MB", heaps)
	pooled("batch", batch)
	pooled("fresh", fresh)
	pooled("query", query)
	return res
}

// printRun writes one run as a table, one metric per line.
func printRun(out io.Writer, r runResult, names []string) {
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	if !r.Correct {
		share = 1
	}
	fmt.Fprintf(out, "%s  seed=%d laps=%d attempted=%d failed=%d error_share=%g correct=%v\n",
		r.Workload, r.Seed, r.Laps, r.Attempted, r.Failed, share, r.Correct)
	if r.Problem != "" {
		fmt.Fprintf(out, "  problem: %s\n", r.Problem)
	}
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-8s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(out, " n=%-6d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(out)
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(out, "  serving ladder, %d/%d/%d POST/s (this workload only; not in BENCHMARK.json)\n", rateLow, rateGated, rateHigh)
		for _, name := range sortedNames(r.Ladder) {
			fmt.Fprintf(out, "  %-32s %14.6g %s\n", name, r.Ladder[name].Value, r.Ladder[name].Unit)
		}
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

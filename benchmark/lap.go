package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"streamgraph"
	"streamgraph/internal/graph"
)

// lapResult is what one lap measured. A lap is one fresh system fed one
// freshly generated input: set-up (generation, construction, warm-up)
// is timed as a whole, then each operation is timed on its own.
type lapResult struct {
	setup     time.Duration
	batchMs   []float64 // time to acknowledge one batch
	freshMs   []float64 // hand-in of a batch to the result that covers it; library workloads with analytics only
	queryMs   []float64 // one GET; serving workloads only
	edgesPerS float64
	heapMB    float64 // live heap after a collection, system still referenced
	attempted int
	failed    int
	// verifyErr is the oracle's verdict when the lap was asked to check
	// its output; verifyWall is the time that check took, which is not
	// part of the measurement.
	verifyErr  error
	verifyWall time.Duration
}

// freshTracker attributes result freshness. A batch is handed in at the
// start of its ApplyBatch call; it is covered by the first later result
// whose compute round includes it, which Result.ComputedBatches reports
// as "this round covered the last n batches".
type freshTracker struct {
	pending []time.Time // hand-in times of batches no round has covered yet; zero = untimed
}

// handed records a batch handed in at start (the zero time for a batch
// whose freshness is not measured, such as a warm-up batch).
func (f *freshTracker) handed(start time.Time) { f.pending = append(f.pending, start) }

// covered reports a round that ended at end and covered the newest n
// pending batches (n <= 0 means every pending batch, as Flush does; a
// round cannot cover more than is pending). It returns the freshness of
// each timed batch the round covered, in milliseconds. Older batches
// stay pending until a later round or the flush covers them.
func (f *freshTracker) covered(n int, end time.Time) []float64 {
	if n <= 0 || n > len(f.pending) {
		n = len(f.pending)
	}
	keep := len(f.pending) - n
	var out []float64
	for _, start := range f.pending[keep:] {
		if !start.IsZero() {
			out = append(out, ms(end.Sub(start)))
		}
	}
	f.pending = f.pending[:keep]
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// queryVertex picks the vertex of the j-th query after batch b: an
// endpoint the batch just touched, so the read hits fresh state.
func queryVertex(b *graph.Batch, j int) graph.VertexID {
	e := b.Edges[(j*7919)%len(b.Edges)]
	if j%2 == 0 {
		return e.Dst
	}
	return e.Src
}

// releaseVerifyMemory hands the reference model's memory, several
// times the graph's, back to the system, so the laps after the check
// start from a heap like the one the lap before it had.
func releaseVerifyMemory() { debug.FreeOSMemory() }

// liveHeapMB collects garbage and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// libraryLap runs one lap of a library workload: the caller is a
// program that links the facade and calls ApplyBatch back to back.
func libraryLap(w *workload, seed int64, verify bool) lapResult {
	var r lapResult
	lapStart := time.Now()
	batches := w.generate(seed, w.lapBatches())
	cfg := w.config()
	sys := streamgraph.New(cfg)
	var fresh freshTracker
	apply := func(b *graph.Batch) (streamgraph.Result, bool) {
		r.attempted++
		res, err := sys.ApplyBatch(b.Edges)
		if err != nil {
			r.failed++
			return res, false
		}
		return res, true
	}
	for _, b := range batches[:w.warm] {
		fresh.handed(time.Time{})
		if res, ok := apply(b); ok && res.ComputedBatches > 0 {
			fresh.covered(res.ComputedBatches, time.Time{})
		}
	}
	runtime.GC()
	r.setup = time.Since(lapStart)

	var timed time.Duration
	edges := 0
	for _, b := range batches[w.warm:] {
		t0 := time.Now()
		res, ok := apply(b)
		t1 := time.Now()
		if !ok {
			continue
		}
		timed += t1.Sub(t0)
		edges += len(b.Edges)
		r.batchMs = append(r.batchMs, ms(t1.Sub(t0)))
		fresh.handed(t0)
		if res.ComputedBatches > 0 {
			r.freshMs = append(r.freshMs, fresh.covered(res.ComputedBatches, t1)...)
		}
	}
	t0 := time.Now()
	sys.Flush()
	t1 := time.Now()
	timed += t1.Sub(t0)
	if cfg.Analytics != streamgraph.AnalyticsNone {
		// The flush covers what OCA still deferred. Without analytics
		// there are no results to be fresh.
		r.freshMs = append(r.freshMs, fresh.covered(0, t1)...)
	}
	if timed > 0 {
		r.edgesPerS = float64(edges) / timed.Seconds()
	}
	if verify {
		v0 := time.Now()
		_, r.verifyErr = verifyGraph(sys.Graph(), batches)
		releaseVerifyMemory()
		r.verifyWall = time.Since(v0)
	}
	// The input is dead here, so the figure is the system alone.
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(sys)
	return r
}

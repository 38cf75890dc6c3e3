package main

//sglint:pool load-generator lanes join on wg.Wait before the phase returns; a panic in the generator must crash the benchmark, not yield a partial measurement

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph"
	"streamgraph/internal/graph"
	"streamgraph/internal/server"
)

// rig is one in-process sgserve: the system, internal/server in front
// of it with sgserve's option defaults, and a real loopback listener.
type rig struct {
	sys *streamgraph.System
	ts  *httptest.Server
}

func newRig(cfg streamgraph.Config) *rig {
	sys := streamgraph.New(cfg)
	return &rig{sys: sys, ts: httptest.NewServer(server.NewWithOptions(sys, server.Options{}))}
}

func (r *rig) close() { r.ts.Close() }

// newClient returns a client that owns one connection, so a lane is one
// connection and a phase uses at most two.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// encodeBodies renders each batch as the JSON body POST /batch takes.
func encodeBodies(batches []*graph.Batch) [][]byte {
	out := make([][]byte, len(batches))
	for i, b := range batches {
		wire := make([]server.EdgeJSON, len(b.Edges))
		for j, e := range b.Edges {
			wire[j] = server.EdgeJSON{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: float32(e.Weight), Delete: e.Delete}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			panic(err) // EdgeJSON holds only numbers and a bool
		}
		out[i] = body
	}
	return out
}

// postBatch sends one batch and reads the whole response; ok is false
// for a transport error or any status but 200 (a 429 or 503 is a failed
// operation: the batch was not applied).
func postBatch(c *http.Client, url string, body []byte) (status int, ok bool) {
	res, err := c.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil { // drained, so the connection is reused
		return res.StatusCode, false
	}
	return res.StatusCode, res.StatusCode == http.StatusOK
}

// getOK sends one GET and reports whether it answered 200.
func getOK(c *http.Client, url string) bool {
	res, err := c.Get(url)
	if err != nil {
		return false
	}
	defer res.Body.Close()
	io.Copy(io.Discard, res.Body)
	return res.StatusCode == http.StatusOK
}

// queryURL is the j-th GET of the read mix: three neighbourhood reads,
// then one rank read, on vertices the batch due at the same time names.
func queryURL(base string, b *graph.Batch, j int) string {
	v := queryVertex(b, j%getsPerPost)
	if j%getsPerPost == getsPerPost-1 {
		return fmt.Sprintf("%s/rank?v=%d", base, v)
	}
	return fmt.Sprintf("%s/neighbors?v=%d", base, v)
}

// phaseResult is one open-loop phase: a POST lane and a GET lane.
type phaseResult struct {
	post, get laneResult
	rejected  int // POSTs answered 429 or 503
}

// openPhase sends the batches as independent clients would: one lane
// POSTs them at rate per second, a second lane sends getsPerPost GETs
// per POST, and neither waits for the other. It ends with POST /flush,
// which runs whatever rounds OCA still deferred.
func openPhase(r *rig, batches []*graph.Batch, bodies [][]byte, rate int) phaseResult {
	var p phaseResult
	url := r.ts.URL
	postClient, getClient := newClient(), newClient()
	defer postClient.CloseIdleConnections()
	defer getClient.CloseIdleConnections()
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.post = openLoop(realClock{}, start, interval, len(bodies), func(i int, _ time.Time) bool {
			status, ok := postBatch(postClient, url, bodies[i])
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				p.rejected++
			}
			return ok
		})
	}()
	go func() {
		defer wg.Done()
		p.get = openLoop(realClock{}, start, interval/getsPerPost, len(bodies)*getsPerPost, func(j int, _ time.Time) bool {
			return getOK(getClient, queryURL(url, batches[j/getsPerPost], j))
		})
	}()
	wg.Wait()
	p.post.attempted++
	res, err := postClient.Post(url+"/flush", "application/json", nil)
	if err != nil {
		p.post.failed++
		return p
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		p.post.failed++
	}
	return p
}

// closedPhase POSTs the bodies back to back on two connections, each
// sending its next request when the previous one completes, and returns
// accepted edges per second of wall time and how many POSTs failed.
func closedPhase(r *rig, batches []*graph.Batch, bodies [][]byte) (edgesPerS float64, failed int) {
	var next, edges, fails atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				if _, ok := postBatch(c, r.ts.URL, bodies[i]); ok {
					edges.Add(int64(len(batches[i].Edges)))
				} else {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	return float64(edges.Load()) / wall.Seconds(), int(fails.Load())
}

// warmRig POSTs the warm-up batches one after another and reports how
// many failed.
func warmRig(r *rig, bodies [][]byte) (failed int) {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, body := range bodies {
		if _, ok := postBatch(c, r.ts.URL, body); !ok {
			failed++
		}
	}
	return failed
}

// serveLap runs one lap of a serving workload: a fresh server, warm-up,
// an open-loop phase at the gated rate for the latencies, then a
// closed-loop phase for throughput.
func serveLap(w *workload, seed int64, verify bool) lapResult {
	var r lapResult
	lapStart := time.Now()
	batches := w.generate(seed, w.lapBatches())
	bodies := encodeBodies(batches)
	rg := newRig(w.config())
	defer rg.close()
	r.attempted += w.warm
	r.failed += warmRig(rg, bodies[:w.warm])
	runtime.GC()
	r.setup = time.Since(lapStart)

	lo, hi := w.warm, w.warm+w.timed
	p := openPhase(rg, batches[lo:hi], bodies[lo:hi], rateGated)
	r.batchMs, r.queryMs = p.post.latencyMs, p.get.latencyMs
	r.attempted += p.post.attempted + p.get.attempted
	r.failed += p.post.failed + p.get.failed
	if verify {
		// Every accepted batch so far was sent in order on one lane, so
		// the reference model can replay them; the closed phase below
		// races two senders and has no single order.
		v0 := time.Now()
		r.verifyErr = verifyServed(rg, batches[:hi])
		releaseVerifyMemory()
		r.verifyWall = time.Since(v0)
	}

	eps, failed := closedPhase(rg, batches[hi:], bodies[hi:])
	r.edgesPerS = eps
	r.attempted += w.closed
	r.failed += failed
	r.heapMB = liveHeapMB()
	return r
}

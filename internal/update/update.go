// Package update implements the graph update engines the paper
// evaluates:
//
//   - Baseline: edge-parallel ingestion with per-vertex locks and a
//     linear duplicate-check search per edge (Section 3.2's baseline).
//   - Reordered (RO): lock-free vertex-centric ingestion over a batch
//     reordered by internal/reorder; pays two stable radix sorts and
//     two update passes (out-edges by source, in-edges by
//     destination).
//   - Reordered+USC: RO plus update search coalescing — one scan of a
//     vertex's edge data serves all of that vertex's incoming updates
//     through a small hash table (Section 4.3).
//
// All engines implement the same semantics so that any mode can be
// chosen per batch: within a batch, all insertions are applied before
// all deletions (the paper's HAU update-ordering policy, adopted
// globally so every execution mode converges to the same state);
// inserting an existing edge updates its weight; deleting an absent
// edge is a no-op.
package update

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/reorder"
)

// Stats describes one batch update: where the time went and how much
// synchronization and search work the engine performed. Counters are
// exact, not sampled.
type Stats struct {
	// Locks is the number of per-vertex lock acquisitions.
	Locks int64
	// Comparisons is the number of adjacency entries examined by
	// duplicate-check searches (including USC's single scans).
	Comparisons int64
	// HashOps is the number of USC hash-table operations.
	HashOps int64
	// EdgesApplied is the number of edge operations ingested.
	EdgesApplied int64
	// UniqueVerts and OverlapVerts support OCA: vertices touched for
	// the first time in this batch, and those whose previous
	// latest_bid was exactly the preceding batch.
	UniqueVerts  int64
	OverlapVerts int64
	// Sort is the time spent reordering (zero for the baseline);
	// Update is the ingestion time; Total covers both.
	Sort   time.Duration
	Update time.Duration
	Total  time.Duration
	// DstRunLens holds the destination-run lengths (per-vertex
	// intra-batch in-degrees) when Config.CollectDstRuns is set on a
	// reordered engine; ABR's reordered-path instrumentation reads
	// CAD_λ from these at near-zero cost.
	DstRunLens []int
}

// add accumulates worker-local counters into s.
func (s *Stats) add(w *workerStats) {
	s.Locks += w.locks
	s.Comparisons += w.comparisons
	s.HashOps += w.hashOps
	s.EdgesApplied += w.edges
	s.UniqueVerts += w.unique
	s.OverlapVerts += w.overlap
}

type workerStats struct {
	locks       int64
	comparisons int64
	hashOps     int64
	edges       int64
	unique      int64
	overlap     int64
}

// touch records vertex v's appearance in batch bid, maintaining the
// latest_bid field OCA reads and counting unique/overlap vertices
// exactly once per batch.
func (w *workerStats) touch(s *graph.AdjacencyStore, v graph.VertexID, bid int32) {
	prev := s.LatestBID(v)
	if prev == bid {
		return
	}
	if s.SwapLatestBID(v, bid) == bid {
		return // another worker won the race; it did the counting
	}
	w.unique++
	if prev >= 0 && prev == bid-1 {
		w.overlap++
	}
}

// Config holds engine tuning knobs shared by all engines.
type Config struct {
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// MinCoalesceRun is the smallest vertex run USC builds a hash
	// table for; shorter runs use direct scans, where coalescing is
	// superfluous (the paper's degree-1 argument, Section 4.5).
	// 0 means the default of 8.
	MinCoalesceRun int
	// CollectDstRuns makes reordered engines record destination run
	// lengths into Stats.DstRunLens (ABR-active instrumentation).
	CollectDstRuns bool
	// Obs, when non-nil, receives each Apply's latency and work
	// counters (lock acquisitions, duplicate-search comparisons, USC
	// hash operations) — the quantities the paper's optimizations
	// target. Nil disables the instrumentation.
	Obs *obs.Observer
}

// observe reports one completed Apply to the configured observer.
func (c Config) observe(engine string, st *Stats) {
	c.Obs.ObserveEngineApply(engine, st.Total.Seconds(),
		st.EdgesApplied, st.Locks, st.Comparisons, st.HashOps)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) minCoalesce() int {
	if c.MinCoalesceRun > 0 {
		return c.MinCoalesceRun
	}
	return 8
}

// Engine applies input batches to an adjacency store.
type Engine interface {
	// Name identifies the engine in reports ("baseline", "ro", ...).
	Name() string
	// Apply ingests b and returns the update statistics.
	Apply(s *graph.AdjacencyStore, b *graph.Batch) Stats
}

// chunk is the dynamic-scheduling granularity for edge-parallel work.
const chunk = 256

// parallelChunks runs fn over [0,n) in dynamically scheduled chunks
// using the configured worker count, giving each worker a private
// workerStats that is merged into st afterwards.
//
//sglint:pool update worker pools join on wg.Wait before the batch returns; a panic in an apply kernel must crash, not be swallowed mid-batch
func parallelChunks(n, workers int, st *Stats, fn func(lo, hi int, w *workerStats)) {
	if n == 0 {
		return
	}
	if workers > n/chunk+1 {
		workers = n/chunk + 1
	}
	var next atomic.Int64
	locals := make([]workerStats, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(w *workerStats) {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi, w)
			}
		}(&locals[k])
	}
	wg.Wait()
	for i := range locals {
		st.add(&locals[i])
	}
}

// parallelRuns dynamically schedules the vertex runs of a sorted view
// across workers and joins them (the RO work division: one thread owns
// all of a vertex's edges). A worker claims chunk edges at a time and
// applies every run that starts inside its claim, so a run is never
// split and no run list is stored. fn receives the worker's index and
// a span of whole runs; worker indices are dense from 0.
func parallelRuns(view []graph.Edge, bySrc bool, workers int, fn func(k, lo, hi int)) {
	n := len(view)
	if chunks := (n + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, 0, n) // a batch this small is not worth a goroutine
		return
	}
	// startOf moves i forward to the first run that starts at or after it.
	startOf := func(i int) int {
		if i == 0 || i == n || reorder.Key(&view[i-1], bySrc) != reorder.Key(&view[i], bySrc) {
			return i
		}
		return reorder.RunEnd(view, i, bySrc)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				if lo, hi := startOf(lo), startOf(min(lo+chunk, n)); lo < hi {
					fn(k, lo, hi)
				}
			}
		}(k)
	}
	wg.Wait()
}

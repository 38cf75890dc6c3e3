package update_test

// Allocation-regression gates for the run-partitioned ingest paths.
// The claim is zero allocations per edge end-to-end once an engine is
// warm: the shared partitioner reuses its buffers (gated on its own in
// internal/reorder), the epoch store's chunk pool recycles version
// memory batch-over-batch (with no pinned readers a batch's retired
// chunks are reclaimable by its own FinishBatch), the RO/USC engine's
// per-worker coalescing tables only grow, and nothing on the per-edge
// path boxes, closes over, or appends. These tests pin that down
// dynamically; sglint's hotpathalloc analyzer polices the same
// property statically.

import (
	"math/rand"
	"runtime"
	"testing"

	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/update"
)

// warmEpoch returns a store and engine in steady state: the stream
// has been applied once, so the vertex table, partitioner buffers and
// chunk pool have all reached their working sizes.
func warmEpoch(workers int) (*graph.EpochStore, *update.EpochEngine, []*graph.Batch) {
	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 7, Vertices: 1024, BatchSize: 2048, Batches: 6}
	batches := spec.Generate()
	st := graph.NewEpochStore(1024, graph.EpochOptions{})
	eng := &update.EpochEngine{Cfg: update.Config{Workers: workers}}
	for _, b := range batches {
		eng.Apply(st, b)
	}
	return st, eng, batches
}

// TestEpochIngestZeroAlloc is the hard gate: the single-worker (inline)
// ingest path must allocate nothing at all per batch once warm — not
// zero per edge, zero, full stop.
func TestEpochIngestZeroAlloc(t *testing.T) {
	st, eng, batches := warmEpoch(1)
	b := batches[len(batches)-1]
	// Replaying one batch has a chunk working set of its own, reached a
	// few replays in; AllocsPerRun truncates its average, so a stray
	// chunk or two would pass or fail by luck.
	for misses := int64(-1); misses != st.PoolMisses(); {
		misses = st.PoolMisses()
		eng.Apply(st, b)
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		eng.Apply(st, b)
	})
	if allocs != 0 {
		t.Fatalf("single-worker epoch ingest: %v allocs per batch (%d edges), want 0", allocs, b.Size())
	}
}

// TestEpochIngestParallelAllocBound bounds the multi-worker path: the
// per-batch fan-out (worker locals, goroutine starts) is O(workers)
// and amortizes to well under a hundredth of an allocation per edge;
// the per-edge work itself still allocates nothing.
func TestEpochIngestParallelAllocBound(t *testing.T) {
	st, eng, batches := warmEpoch(4)
	b := batches[len(batches)-1]
	runtime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		eng.Apply(st, b)
	})
	perEdge := allocs / float64(b.Size())
	if perEdge >= 0.05 {
		t.Fatalf("parallel epoch ingest: %v allocs/batch = %v allocs/edge (%d edges), want < 0.05",
			allocs, perEdge, b.Size())
	}
}

// TestReorderedUSCIngestZeroAlloc: the warmed single-worker RO+USC
// engine allocates nothing of its own. Replaying a batch the store
// already holds only rewrites weights, so no adjacency list grows
// either and the count is the engine's alone.
func TestReorderedUSCIngestZeroAlloc(t *testing.T) {
	spec := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 7, Vertices: 1024, BatchSize: 2048, Batches: 6}
	batches := spec.Generate()
	st := graph.NewAdjacencyStore(1024)
	eng := &update.Reordered{Cfg: update.Config{Workers: 1, CollectDstRuns: true}, USC: true}
	for _, b := range batches {
		eng.Apply(st, b)
	}
	b := batches[0] // insert-only (the skewed family): a replay creates nothing
	eng.Apply(st, b)
	runtime.GC()
	allocs := testing.AllocsPerRun(10, func() {
		eng.Apply(st, b)
	})
	if allocs != 0 {
		t.Fatalf("single-worker ro+usc ingest: %v allocs per batch (%d edges), want 0", allocs, b.Size())
	}
}

// maxScratchPerEdge bounds what a warmed RO+USC engine keeps between
// batches, in bytes per edge of its largest batch: one 16-byte sorted
// view, 4-byte sort positions, and the fixed digit histograms (24 KiB,
// about 5 bytes per edge at 5 000 edges). Storing both views, 8-byte
// sort words and the run lists instead came to about 88.
const maxScratchPerEdge = 32

// TestReorderedRetainedScratch: the reordered engine runs on every
// batch by default, so what it retains is live heap on every workload.
// The batches are 5 000 edges whose sources and destinations each form
// runs of about two edges, the shape where per-run state costs most.
func TestReorderedRetainedScratch(t *testing.T) {
	const edges, keys = 5000, 2500
	rng := rand.New(rand.NewSource(11))
	st := graph.NewAdjacencyStore(20 * keys)
	eng := &update.Reordered{Cfg: update.Config{Workers: 2}, USC: true}
	for id := 0; id < 4; id++ {
		b := &graph.Batch{ID: id, Edges: make([]graph.Edge, edges)}
		for i := range b.Edges {
			b.Edges[i] = graph.Edge{Src: graph.VertexID(20*rng.Intn(keys) + 1),
				Dst: graph.VertexID(20 * rng.Intn(keys)), Weight: 1}
		}
		eng.Apply(st, b)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	with := heap()
	runtime.KeepAlive(eng)
	without := heap()
	runtime.KeepAlive(st)
	perEdge := float64(int64(with)-int64(without)) / edges
	if perEdge > maxScratchPerEdge {
		t.Fatalf("warmed ro+usc engine retains %.1f B/edge, want <= %d", perEdge, maxScratchPerEdge)
	}
	t.Logf("retained scratch: %.1f B/edge", perEdge)
}

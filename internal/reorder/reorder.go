// Package reorder implements batch reordering (RO): the pre-update
// transformation that clusters an input batch's edges per vertex so
// that a single thread can apply all of one vertex's updates without
// locks (Section 3.2 of the paper).
//
// The paper sorts with Boost's parallel stable sort; vertex IDs here
// are dense uint32s, so the sort is a stable LSD radix sort over
// (key, position) words — linear in the batch, no comparator, and no
// per-vertex table: everything a Partitioner retains is O(batch),
// never O(V). The update engines consume the resulting vertex runs
// through a dynamic work queue.
//
// Reordering produces two sorted views — by source and by destination —
// because out-edge updates cluster by source while in-edge updates
// cluster by destination, and the two views must be applied as two
// separate passes (one of RO's costs).
package reorder

import (
	"slices"
	"sync"

	"streamgraph/internal/graph"
)

// Run is a maximal contiguous span of edges sharing one vertex key:
// edges[Lo:Hi] all have V as their source (in the BySrc view) or
// destination (ByDst view). A run is the unit of vertex-centric work.
type Run struct {
	V      graph.VertexID
	Lo, Hi int
}

// Len returns the number of edges in the run.
func (r Run) Len() int { return r.Hi - r.Lo }

// Three 11-bit digits cover a 32-bit key; a digit every key shares
// (the high digits of any realistic vertex space) costs no pass.
const (
	radixBits   = 11
	radixSize   = 1 << radixBits
	radixMask   = radixSize - 1
	radixDigits = 3
)

// Partitioner is the reusable scratch of the reordering sort. The zero
// value is ready to use. Partition overwrites the exported views and
// runs in place, so they are valid until the next call; the buffers
// grow to the largest batch seen and are retained, and a warmed
// Partitioner allocates nothing. One goroutine at a time.
type Partitioner struct {
	// BySrc and ByDst are the batch stable-sorted by source and by
	// destination; RunsSrc and RunsDst are their vertex runs.
	BySrc, ByDst     []graph.Edge
	RunsSrc, RunsDst []Run

	words, spare []uint64 // key<<32 | input position, ping-ponged by the passes
	hist         []uint32 // radixDigits digit histograms
	lens         []int
}

// Partition builds both sorted views of edges and their runs. The
// input is not modified.
func (p *Partitioner) Partition(edges []graph.Edge) {
	p.BySrc, p.RunsSrc = gather(p.BySrc, p.RunsSrc, edges, p.sortWords(edges, true))
	p.ByDst, p.RunsDst = gather(p.ByDst, p.RunsDst, edges, p.sortWords(edges, false))
}

// DstRunLens returns the lengths of RunsDst — each destination's
// intra-batch in-degree, ABR's reordered-path input. The slice aliases
// the scratch and is valid until the next call on p.
func (p *Partitioner) DstRunLens() []int {
	p.lens = lensFor(p.lens, len(p.RunsDst))
	for _, r := range p.RunsDst {
		p.lens = append(p.lens, r.Len())
	}
	return p.lens
}

// DstDegrees returns the same lengths for a batch that is not being
// reordered: it sorts the destination keys alone and builds no view.
func (p *Partitioner) DstDegrees(edges []graph.Edge) []int {
	sorted := p.sortWords(edges, false)
	p.lens = lensFor(p.lens, len(sorted))
	lo := 0
	for j := 1; j <= len(sorted); j++ {
		if j == len(sorted) || sorted[j]>>32 != sorted[lo]>>32 {
			p.lens = append(p.lens, j-lo)
			lo = j
		}
	}
	return p.lens
}

// lensFor empties lens with room for n lengths, so that filling it
// never grows it piecemeal.
func lensFor(lens []int, n int) []int {
	if cap(lens) < n {
		return make([]int, 0, n)
	}
	return lens[:0]
}

// sortWords returns one word per edge, key<<32 | input position,
// stable-sorted by key. The result aliases the scratch.
func (p *Partitioner) sortWords(edges []graph.Edge, bySrc bool) []uint64 {
	n := len(edges)
	if cap(p.words) < n {
		p.words, p.spare = make([]uint64, n), make([]uint64, n)
	}
	if p.hist == nil {
		p.hist = make([]uint32, radixDigits*radixSize)
	}
	hist := p.hist
	clear(hist)
	from, to := p.words[:n], p.spare[:n]
	for i := range edges {
		k := edges[i].Dst
		if bySrc {
			k = edges[i].Src
		}
		from[i] = uint64(k)<<32 | uint64(i)
		hist[k&radixMask]++
		hist[radixSize+(k>>radixBits)&radixMask]++
		hist[2*radixSize+(k>>(2*radixBits))]++
	}
	for d := 0; d < radixDigits && n > 0; d++ {
		h := hist[d*radixSize : (d+1)*radixSize]
		shift := 32 + d*radixBits
		if h[(from[0]>>shift)&radixMask] == uint32(n) {
			continue // every key has this digit
		}
		var off uint32
		for j, c := range h {
			h[j] = off
			off += c
		}
		for _, w := range from {
			j := (w >> shift) & radixMask
			to[h[j]] = w
			h[j]++
		}
		from, to = to, from
	}
	return from
}

// gather materialises the sorted view and emits its runs in the same
// walk over the sorted words.
func gather(view []graph.Edge, runs []Run, edges []graph.Edge, sorted []uint64) ([]graph.Edge, []Run) {
	if cap(view) < len(sorted) {
		view = make([]graph.Edge, len(sorted))
	}
	view, runs = view[:len(sorted)], runs[:0]
	lo := 0
	for j, w := range sorted {
		view[j] = edges[uint32(w)]
		if prev := sorted[lo] >> 32; w>>32 != prev {
			runs = append(runs, Run{V: graph.VertexID(prev), Lo: lo, Hi: j})
			lo = j
		}
	}
	if len(sorted) > 0 {
		runs = append(runs, Run{V: graph.VertexID(sorted[lo] >> 32), Lo: lo, Hi: len(sorted)})
	}
	return view, runs
}

// Reordered is a reordered input batch that owns its memory: the same
// edges stable-sorted by source and by destination.
type Reordered struct {
	BySrc, ByDst     []graph.Edge
	runsSrc, runsDst []Run
}

// pool keeps Reorder's scratch warm between calls; the collector
// reclaims it when the calls stop.
var pool = sync.Pool{New: func() any { return new(Partitioner) }}

// Reorder produces the two sorted views of b on a pooled Partitioner
// and copies them out, for callers that keep the result; the engines
// hold a Partitioner and copy nothing. workers is unused: the sort is
// linear and a 10 000-edge batch is not worth a fan-out. The input
// batch is not modified.
func Reorder(b *graph.Batch, workers int) *Reordered {
	p := pool.Get().(*Partitioner)
	defer pool.Put(p)
	p.Partition(b.Edges)
	return &Reordered{
		BySrc: slices.Clone(p.BySrc), ByDst: slices.Clone(p.ByDst),
		runsSrc: slices.Clone(p.RunsSrc), runsDst: slices.Clone(p.RunsDst),
	}
}

// RunsBySrc returns the vertex runs of the BySrc view.
func (r *Reordered) RunsBySrc() []Run { return r.runsSrc }

// RunsByDst returns the vertex runs of the ByDst view.
func (r *Reordered) RunsByDst() []Run { return r.runsDst }

// Package reorder implements batch reordering (RO): the pre-update
// transformation that clusters an input batch's edges per vertex so
// that a single thread can apply all of one vertex's updates without
// locks (Section 3.2 of the paper).
//
// The paper sorts with Boost's parallel stable sort; vertex IDs here
// are dense uint32s, so the sort is a stable LSD radix sort over input
// positions — linear in the batch, no comparator, and no per-vertex
// table: everything a Partitioner retains is O(batch), never O(V). The
// update engines find the vertex runs in the sorted view as they go
// (RunEnd) and hand them out through a dynamic work queue.
//
// Reordering produces two sorted views — by source and by destination —
// because out-edge updates cluster by source while in-edge updates
// cluster by destination, and the two views must be applied as two
// separate passes (one of RO's costs).
package reorder

import (
	"slices"
	"sort"
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

// Key returns e's key in the by-source (bySrc) or by-destination view.
func Key(e *graph.Edge, bySrc bool) graph.VertexID {
	if bySrc {
		return e.Src
	}
	return e.Dst
}

// RunEnd returns the end of the run holding view[i] in a view sorted
// by key: the first index past i with another key. A run is walked
// for its first few edges and then galloped over, so a one-edge run
// costs one comparison and a hub's run O(log run); that is cheap
// enough for the engines to find runs in the view instead of storing
// them.
func RunEnd(view []graph.Edge, i int, bySrc bool) int {
	k := Key(&view[i], bySrc)
	lo := i + 1 // view[lo-1] has key k
	for end := min(i+8, len(view)); lo < end; lo++ {
		if Key(&view[lo], bySrc) != k {
			return lo
		}
	}
	hi := lo
	for step := 8; hi < len(view) && Key(&view[hi], bySrc) == k; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(view))
	return lo + sort.Search(hi-lo, func(j int) bool { return Key(&view[lo+j], bySrc) != k })
}

// RunLens empties lens and fills it with the run lengths of a sorted
// view: per vertex, its intra-batch degree in that direction.
func RunLens(lens []int, view []graph.Edge, bySrc bool) []int {
	lens = lens[:0]
	for lo := 0; lo < len(view); {
		hi := RunEnd(view, lo, bySrc)
		lens = append(lens, hi-lo)
		lo = hi
	}
	return lens
}

// appendRuns empties runs and fills it with the runs of a sorted view.
func appendRuns(runs []Run, view []graph.Edge, bySrc bool) []Run {
	runs = runs[:0]
	for lo := 0; lo < len(view); {
		hi := RunEnd(view, lo, bySrc)
		runs = append(runs, Run{V: Key(&view[lo], bySrc), Lo: lo, Hi: hi})
		lo = hi
	}
	return runs
}

// Three 11-bit digits cover a 32-bit key; a digit every key shares
// (the high digits of any realistic vertex space) costs no pass.
const (
	radixBits   = 11
	radixSize   = 1 << radixBits
	radixMask   = radixSize - 1
	radixDigits = 3
)

// digit returns key's d-th radix digit.
func digit(k graph.VertexID, d int) uint32 { return uint32(k>>(d*radixBits)) & radixMask }

// Partitioner is the reusable scratch of the reordering sort. The zero
// value is ready to use, and one goroutine uses it at a time.
//
// Sort is what the engines call: it keeps only 4 bytes per edge of
// positions (8 when keys need all three digits) and the digit
// histograms, and writes the view into the caller's buffer. Partition
// builds both views and their runs for callers that want them at once;
// it overwrites the exported fields in place, so they are valid until
// the next call. Buffers grow to the largest batch seen and are kept,
// so a warmed Partitioner allocates nothing.
type Partitioner struct {
	// BySrc and ByDst are the batch stable-sorted by source and by
	// destination; RunsSrc and RunsDst are their vertex runs.
	BySrc, ByDst     []graph.Edge
	RunsSrc, RunsDst []Run

	pos, spare []uint32 // input positions, ping-ponged by the passes before the last
	hist       []uint32 // radixDigits digit histograms
	lens       []int
}

// Partition builds both sorted views of edges and their runs. The
// input is not modified.
func (p *Partitioner) Partition(edges []graph.Edge) {
	p.BySrc = p.Sort(p.BySrc, edges, true)
	p.RunsSrc = appendRuns(p.RunsSrc, p.BySrc, true)
	p.ByDst = p.Sort(p.ByDst, edges, false)
	p.RunsDst = appendRuns(p.RunsDst, p.ByDst, false)
}

// DstRunLens returns the run lengths of ByDst — each destination's
// intra-batch in-degree. The slice aliases the scratch and is valid
// until the next call on p.
func (p *Partitioner) DstRunLens() []int {
	p.lens = RunLens(p.lens, p.ByDst, false)
	return p.lens
}

// DstDegrees returns the same lengths for edges without partitioning
// them by source: it sorts ByDst alone and leaves RunsDst stale.
func (p *Partitioner) DstDegrees(edges []graph.Edge) []int {
	p.ByDst = p.Sort(p.ByDst, edges, false)
	return p.DstRunLens()
}

// Sort writes edges stable-sorted by source (bySrc) or destination
// into view, growing it if it is short, and returns it. The input is
// not modified.
//
// It is an LSD radix sort over the digits in which the keys differ.
// Every pass but the last moves 4-byte input positions; the last moves
// the edges themselves into view, so there is no separate gather.
func (p *Partitioner) Sort(view, edges []graph.Edge, bySrc bool) []graph.Edge {
	n := len(edges)
	if cap(view) < n {
		view = make([]graph.Edge, n)
	}
	view = view[:n]
	order, last := p.order(edges, bySrc)
	if last < 0 {
		copy(view, edges) // at most one key: the input order is sorted
		return view
	}
	h := p.offsets(last)
	if order == nil {
		for i := range edges {
			b := digit(Key(&edges[i], bySrc), last)
			view[h[b]] = edges[i]
			h[b]++
		}
		return view
	}
	for _, at := range order {
		b := digit(Key(&edges[at], bySrc), last)
		view[h[b]] = edges[at]
		h[b]++
	}
	return view
}

// order radix-sorts input positions by key over the digits in which
// the keys differ, all but the last, which Sort makes on the edges
// themselves. It returns the positions in that order (nil for the
// input order, when at most one pass is needed) and the digit of the
// last pass (-1 when the keys do not differ at all).
func (p *Partitioner) order(edges []graph.Edge, bySrc bool) (order []uint32, last int) {
	n := len(edges)
	if p.hist == nil {
		p.hist = make([]uint32, radixDigits*radixSize)
	}
	hist := p.hist
	clear(hist)
	for i := range edges {
		k := Key(&edges[i], bySrc)
		hist[k&radixMask]++
		hist[radixSize+(k>>radixBits)&radixMask]++
		hist[2*radixSize+(k>>(2*radixBits))]++
	}
	var passes [radixDigits]int
	np := 0
	for d := 0; d < radixDigits && n > 0; d++ {
		if hist[d*radixSize+int(digit(Key(&edges[0], bySrc), d))] != uint32(n) {
			passes[np] = d // the keys differ in this digit
			np++
		}
	}
	if np == 0 {
		return nil, -1
	}
	run := passes[:np-1]
	if len(run) > 0 && cap(p.pos) < n {
		p.pos = make([]uint32, n)
	}
	if len(run) > 1 && cap(p.spare) < n {
		p.spare = make([]uint32, n)
	}
	for j, d := range run {
		to := p.pos[:n]
		if j%2 == 1 {
			to = p.spare[:n]
		}
		scatter(to, order, edges, bySrc, d, p.offsets(d))
		order = to
	}
	return order, passes[np-1]
}

// offsets turns digit d's histogram into bucket start offsets.
func (p *Partitioner) offsets(d int) []uint32 {
	h := p.hist[d*radixSize : (d+1)*radixSize]
	var off uint32
	for b, c := range h {
		h[b] = off
		off += c
	}
	return h
}

// scatter moves positions into to by digit d, stably, reading them in
// the given order (nil for the input order); h holds the offsets.
func scatter(to, order []uint32, edges []graph.Edge, bySrc bool, d int, h []uint32) {
	if order == nil {
		for i := range edges {
			b := digit(Key(&edges[i], bySrc), d)
			to[h[b]] = uint32(i)
			h[b]++
		}
		return
	}
	for _, at := range order {
		b := digit(Key(&edges[at], bySrc), d)
		to[h[b]] = at
		h[b]++
	}
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

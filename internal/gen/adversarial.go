package gen

import (
	"fmt"
	"math/rand"

	"streamgraph/internal/graph"
)

// AdvKind names one adversarial stream family. Each family targets a
// specific divergence surface between the update engines and stores:
// skew stresses long vertex runs and lock convoys, overlap stresses
// latest_bid/OCA accounting, delete-heavy stresses the
// insert-before-delete ordering policy and in-list mirroring,
// duplicate-heavy stresses duplicate-check searches and USC's
// coalescing maps.
type AdvKind int

const (
	// AdvSkewed concentrates most destinations on a handful of hub
	// vertices, producing the high-degree batches the paper calls
	// reordering-friendly.
	AdvSkewed AdvKind = iota
	// AdvOverlap draws endpoints from a small persistent working set
	// so consecutive batches touch mostly the same vertices.
	AdvOverlap
	// AdvDeleteHeavy mixes ~45% deletions: mostly of live edges, with
	// a share of deletions of absent edges (which must be no-ops) and
	// same-batch insert-then-delete pairs.
	AdvDeleteHeavy
	// AdvDuplicateHeavy repeats a small pool of (src,dst) pairs many
	// times per batch, mixing re-insertions and deletions of the same
	// key within one batch.
	AdvDuplicateHeavy
	// AdvMixed cycles through the other families batch by batch.
	AdvMixed
)

// String returns the family's replay name.
func (k AdvKind) String() string {
	switch k {
	case AdvSkewed:
		return "skewed"
	case AdvOverlap:
		return "overlap"
	case AdvDeleteHeavy:
		return "delete-heavy"
	case AdvDuplicateHeavy:
		return "duplicate-heavy"
	case AdvMixed:
		return "mixed"
	default:
		return "unknown"
	}
}

// AdvKinds lists every adversarial family once.
func AdvKinds() []AdvKind {
	return []AdvKind{AdvSkewed, AdvOverlap, AdvDeleteHeavy, AdvDuplicateHeavy, AdvMixed}
}

// AdvSpec fully determines one adversarial stream: same spec, same
// batches, always. Failing differential runs print the spec so the
// exact stream replays locally.
type AdvSpec struct {
	Kind      AdvKind
	Seed      int64
	Vertices  int // vertex-space bound; no edge references an ID >= Vertices
	BatchSize int
	Batches   int
}

// String renders the spec as a replayable Go literal.
func (sp AdvSpec) String() string {
	return fmt.Sprintf("gen.AdvSpec{Kind: gen.Adv%s, Seed: %d, Vertices: %d, BatchSize: %d, Batches: %d}",
		camel(sp.Kind), sp.Seed, sp.Vertices, sp.BatchSize, sp.Batches)
}

func camel(k AdvKind) string {
	switch k {
	case AdvSkewed:
		return "Skewed"
	case AdvOverlap:
		return "Overlap"
	case AdvDeleteHeavy:
		return "DeleteHeavy"
	case AdvDuplicateHeavy:
		return "DuplicateHeavy"
	default:
		return "Mixed"
	}
}

// advWeight derives the weight every insertion of (src,dst) carries
// within batch bid. Keeping the weight a pure function of the key and
// the batch makes intra-batch duplicate insertions carry identical
// weights, so the edge-parallel baseline engine (whose last-writer
// for a duplicate key is scheduling-dependent) stays byte-equivalent
// to the sequential engines; across batches the weight still changes,
// exercising the update-in-place path.
func advWeight(src, dst graph.VertexID, bid int) graph.Weight {
	return graph.Weight(1 + (uint32(src)*31+uint32(dst)*17+uint32(bid)*7)%97)
}

// Generate materializes the spec's batches. The stream is internally
// stateful (live-edge tracking for deletions) but fully determined by
// the spec.
func (sp AdvSpec) Generate() []*graph.Batch {
	out, _ := sp.generate()
	return out
}

// generate also returns the generator, whose live list a test compares.
func (sp AdvSpec) generate() ([]*graph.Batch, *advGen) {
	rng := rand.New(rand.NewSource(sp.Seed))
	g := &advGen{spec: sp, rng: rng, liveIdx: make(map[[2]graph.VertexID]int)}
	out := make([]*graph.Batch, sp.Batches)
	for i := range out {
		out[i] = g.nextBatch(i)
	}
	return out, g
}

type advGen struct {
	spec AdvSpec
	rng  *rand.Rand
	// live tracks currently-inserted edges so deletions can target
	// real edges; liveIdx maps a key to its slot in live.
	live    [][2]graph.VertexID
	liveIdx map[[2]graph.VertexID]int
}

func (g *advGen) record(src, dst graph.VertexID) {
	k := [2]graph.VertexID{src, dst}
	if _, ok := g.liveIdx[k]; !ok {
		g.liveIdx[k] = len(g.live)
		g.live = append(g.live, k)
	}
}

func (g *advGen) unrecord(k [2]graph.VertexID) {
	i, ok := g.liveIdx[k]
	if !ok {
		return
	}
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.liveIdx[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.liveIdx, k)
}

func (g *advGen) insert(b *graph.Batch, src, dst graph.VertexID) {
	b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: dst, Weight: advWeight(src, dst, b.ID)})
	g.record(src, dst)
}

func (g *advGen) deleteLive(b *graph.Batch) {
	if len(g.live) == 0 {
		return
	}
	k := g.live[g.rng.Intn(len(g.live))]
	b.Edges = append(b.Edges, graph.Edge{Src: k[0], Dst: k[1], Delete: true})
	g.unrecord(k)
}

func (g *advGen) deleteAbsent(b *graph.Batch) {
	src := graph.VertexID(g.rng.Intn(g.spec.Vertices))
	dst := graph.VertexID(g.rng.Intn(g.spec.Vertices))
	if _, ok := g.liveIdx[[2]graph.VertexID{src, dst}]; ok {
		return // happened to be live; skip rather than mutate state
	}
	b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: dst, Delete: true})
}

func (g *advGen) nextBatch(bid int) *graph.Batch {
	kind := g.spec.Kind
	if kind == AdvMixed {
		kind = AdvKinds()[bid%4]
	}
	b := &graph.Batch{ID: bid}
	n, v := g.spec.BatchSize, g.spec.Vertices
	switch kind {
	case AdvSkewed:
		// 8 hubs absorb ~80% of destinations; sources stay uniform.
		hubs := 8
		if hubs > v {
			hubs = v
		}
		for len(b.Edges) < n {
			src := graph.VertexID(g.rng.Intn(v))
			var dst graph.VertexID
			if g.rng.Float64() < 0.8 {
				dst = graph.VertexID(g.rng.Intn(hubs))
			} else {
				dst = graph.VertexID(g.rng.Intn(v))
			}
			g.insert(b, src, dst)
		}
	case AdvOverlap:
		// A working set of ~1/16 of the space supplies both endpoints.
		ws := v / 16
		if ws < 2 {
			ws = 2
		}
		base := (bid / 4) * ws % v // shift the set every few batches
		for len(b.Edges) < n {
			src := graph.VertexID((base + g.rng.Intn(ws)) % v)
			dst := graph.VertexID((base + g.rng.Intn(ws)) % v)
			g.insert(b, src, dst)
		}
	case AdvDeleteHeavy:
		for len(b.Edges) < n {
			r := g.rng.Float64()
			switch {
			case r < 0.35 && len(g.live) > 0:
				g.deleteLive(b)
			case r < 0.45:
				g.deleteAbsent(b)
			case r < 0.55:
				// Insert-then-delete of a fresh key inside this batch:
				// under the insert-before-delete policy the edge must
				// not survive the batch.
				src := graph.VertexID(g.rng.Intn(v))
				dst := graph.VertexID(g.rng.Intn(v))
				g.insert(b, src, dst)
				b.Edges = append(b.Edges, graph.Edge{Src: src, Dst: dst, Delete: true})
				g.unrecord([2]graph.VertexID{src, dst})
			default:
				g.insert(b, graph.VertexID(g.rng.Intn(v)), graph.VertexID(g.rng.Intn(v)))
			}
		}
	case AdvDuplicateHeavy:
		// A pool of ~n/8 keys supplies the whole batch, so every key
		// repeats ~8x; a fifth of the slots delete a pool key that
		// was (re-)inserted earlier in the same batch.
		pool := n / 8
		if pool < 2 {
			pool = 2
		}
		keys := make([][2]graph.VertexID, pool)
		for i := range keys {
			keys[i] = [2]graph.VertexID{
				graph.VertexID(g.rng.Intn(v)),
				graph.VertexID(g.rng.Intn(v)),
			}
		}
		for len(b.Edges) < n {
			k := keys[g.rng.Intn(pool)]
			if g.rng.Float64() < 0.2 {
				b.Edges = append(b.Edges, graph.Edge{Src: k[0], Dst: k[1], Delete: true})
				g.unrecord(k)
			} else {
				g.insert(b, k[0], k[1])
			}
		}
		// A key both inserted and deleted in this batch ends deleted
		// (deletions run last); reconcile the live set accordingly, in
		// batch order so the live list's order is a function of the
		// spec.
		for _, e := range b.Edges {
			if e.Delete {
				g.unrecord([2]graph.VertexID{e.Src, e.Dst})
			}
		}
	}
	return b
}

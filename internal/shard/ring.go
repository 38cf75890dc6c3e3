// Package shard partitions a streaming graph across N independent
// pipeline instances — the ROADMAP's "path from one box to millions of
// users". Vertices are assigned to shards by consistent hashing, and
// every edge is routed to the owner of *both* endpoints (mirrored once
// when they share an owner), so each shard's adjacency of its owned
// vertices is locally complete: per-vertex reads through the merged
// View — which the analytics engine runs over — and snapshotting never
// need a remote lookup.
//
// A Router in front of the per-shard pipelines splits each incoming
// batch into per-shard sub-batches (preserving relative edge order and
// the batch's trace ID), fans them out concurrently behind each
// runner's panic-isolation boundary, and aggregates the per-shard
// metrics and robustness counters. On top of the static ring sits a
// dynamic repartitioner (repart.go): the same InputProfile statistics
// ABR collects drive an EWMA skew detector that migrates hot vertex
// ranges between shards through the snapshot save/restore path,
// emitting DecisionAudits like ABR/OCA do.
package shard

import (
	"sort"

	"streamgraph/internal/graph"
)

// DefaultReplicas is the number of virtual ring points per shard.
// Enough that the keyspace split is within a few percent of even for
// small shard counts, while keeping Owner's binary search tiny.
const DefaultReplicas = 64

// Span is one contiguous vertex-ID range reassigned away from its
// ring owner (inclusive bounds). The repartitioner migrates hot
// ranges by appending spans to the ring's overlay.
type Span struct {
	Lo, Hi graph.VertexID
	Shard  int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// Ring maps vertex IDs to shards: a consistent-hash ring of virtual
// points plus an overlay of reassigned ranges that takes precedence.
// Lookups are read-only and safe for concurrent use; Assign mutates
// and follows the sequential execution contract (no lookups in
// flight), like every store write in this repository.
type Ring struct {
	shards  int
	points  []ringPoint // sorted by hash
	overlay []Span      // sorted by Lo, non-overlapping
}

// NewRing builds a ring of shards × replicas virtual points.
func NewRing(shards, replicas int) *Ring {
	if shards < 1 {
		panic("shard: ring needs at least one shard")
	}
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards}
	r.points = make([]ringPoint, 0, shards*replicas)
	for s := 0; s < shards; s++ {
		for i := 0; i < replicas; i++ {
			h := splitmix64(uint64(s)<<32 | uint64(i)<<1 | 1)
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning vertex v: its overlay span if one
// covers v, its clockwise ring successor otherwise.
func (r *Ring) Owner(v graph.VertexID) int {
	if len(r.overlay) > 0 {
		i := sort.Search(len(r.overlay), func(i int) bool { return r.overlay[i].Hi >= v })
		if i < len(r.overlay) && r.overlay[i].Lo <= v {
			return r.overlay[i].Shard
		}
	}
	if r.shards == 1 {
		return 0
	}
	h := splitmix64(uint64(v))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Assign reassigns the inclusive range [lo, hi] to shard, splitting
// any overlapping prior spans so the overlay stays sorted and
// non-overlapping.
func (r *Ring) Assign(lo, hi graph.VertexID, shard int) {
	if hi < lo || shard < 0 || shard >= r.shards {
		panic("shard: bad range assignment")
	}
	out := make([]Span, 0, len(r.overlay)+2)
	for _, s := range r.overlay {
		if s.Hi < lo || s.Lo > hi {
			out = append(out, s)
			continue
		}
		if s.Lo < lo {
			out = append(out, Span{Lo: s.Lo, Hi: lo - 1, Shard: s.Shard})
		}
		if s.Hi > hi {
			out = append(out, Span{Lo: hi + 1, Hi: s.Hi, Shard: s.Shard})
		}
	}
	out = append(out, Span{Lo: lo, Hi: hi, Shard: shard})
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	r.overlay = out
}

// Assignments returns a copy of the reassigned-range overlay.
func (r *Ring) Assignments() []Span {
	return append([]Span(nil), r.overlay...)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// integer hash whose output is a pure function of its input, so shard
// ownership is deterministic across processes and replays.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

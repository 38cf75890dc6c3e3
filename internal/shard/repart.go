package shard

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/trace"
)

// Policy tunes the dynamic repartitioner. It reuses the repository's
// input-knowledge machinery: every routed batch is profiled with
// graph.ProfileBatch (the same CAD/skew statistics ABR collects) and
// folded into EWMAs; when the stream's degree skew has drifted above
// SkewThreshold and the resulting per-shard heat is imbalanced beyond
// ImbalanceRatio, the hottest shard's hottest vertex ranges migrate to
// the coolest shard through the snapshot save/restore path. The zero
// value enables repartitioning with the defaults below.
type Policy struct {
	// Disabled turns the repartitioner off entirely.
	Disabled bool
	// MinBatches is how many batches must be observed before the
	// first evaluation; 0 means 8.
	MinBatches int
	// Cooldown is the minimum batch distance between evaluations
	// (migrations or audited holds); 0 means 8.
	Cooldown int
	// SkewThreshold gates evaluation on the EWMA of per-batch degree
	// skew (fraction of a batch aimed at its hottest destination);
	// 0 means 0.2.
	SkewThreshold float64
	// ImbalanceRatio is the hottest-shard heat over the mean heat at
	// which migration (rather than an audited hold) triggers;
	// 0 means 1.5.
	ImbalanceRatio float64
	// Alpha is the EWMA smoothing factor for skew and per-vertex
	// heat; 0 means 0.3.
	Alpha float64
	// MaxMove bounds how many hot vertices migrate per event;
	// 0 means 8.
	MaxMove int
	// Lambda is the profile's high-degree cutoff; 0 means
	// graph.DefaultProfileLambda.
	Lambda int
}

func (p Policy) minBatches() int {
	if p.MinBatches > 0 {
		return p.MinBatches
	}
	return 8
}

func (p Policy) cooldown() int {
	if p.Cooldown > 0 {
		return p.Cooldown
	}
	return 8
}

func (p Policy) skewThreshold() float64 {
	if p.SkewThreshold > 0 {
		return p.SkewThreshold
	}
	return 0.2
}

func (p Policy) imbalanceRatio() float64 {
	if p.ImbalanceRatio > 0 {
		return p.ImbalanceRatio
	}
	return 1.5
}

func (p Policy) alpha() float64 {
	if p.Alpha > 0 {
		return p.Alpha
	}
	return 0.3
}

func (p Policy) maxMove() int {
	if p.MaxMove > 0 {
		return p.MaxMove
	}
	return 8
}

func (p Policy) lambda() int {
	if p.Lambda > 0 {
		return p.Lambda
	}
	return graph.DefaultProfileLambda
}

// repartitioner accumulates the input-knowledge signal. All state is
// touched only from Apply's single-threaded tail (the sequential
// execution contract), never from the fan-out goroutines.
type repartitioner struct {
	pol       Policy
	skew      float64 // EWMA of per-batch degree skew; <0 until measured
	heat      map[graph.VertexID]float64
	applied   int
	lastEvent int
}

func newRepartitioner(pol Policy) *repartitioner {
	return &repartitioner{pol: pol, skew: -1, heat: make(map[graph.VertexID]float64)}
}

// observe folds one routed batch's profile into the EWMAs.
func (rp *repartitioner) observe(b *graph.Batch) {
	rp.applied++
	a := rp.pol.alpha()
	p := graph.ProfileBatch(b, rp.pol.lambda())
	if p.Edges > 0 {
		if rp.skew < 0 {
			rp.skew = p.DegreeSkew
		} else {
			rp.skew = a*p.DegreeSkew + (1-a)*rp.skew
		}
	}
	for v, h := range rp.heat {
		h *= 1 - a
		if h < 0.05 {
			delete(rp.heat, v)
		} else {
			rp.heat[v] = h
		}
	}
	counts := make(map[graph.VertexID]int, len(b.Edges))
	for i := range b.Edges {
		counts[b.Edges[i].Dst]++
	}
	for v, c := range counts {
		rp.heat[v] += a * float64(c)
	}
}

// plan is one evaluated repartition decision.
type plan struct {
	from, to  int
	imbalance float64
	hold      bool
	verts     []graph.VertexID
	ranges    []Span
}

// evaluate checks the trigger and, past it, plans a migration. It
// returns nil when the gates (warm-up, cooldown, skew) are closed; a
// hold plan when heat is balanced; a migration plan otherwise.
// Deterministic: heat is accumulated and candidates picked in sorted
// vertex order, ties broken toward lower IDs.
func (rp *repartitioner) evaluate(shards int, owner func(graph.VertexID) int) *plan {
	if rp.applied < rp.pol.minBatches() || rp.applied-rp.lastEvent < rp.pol.cooldown() {
		return nil
	}
	if rp.skew < rp.pol.skewThreshold() || len(rp.heat) == 0 {
		return nil
	}
	type entry struct {
		v     graph.VertexID
		score float64
	}
	entries := make([]entry, 0, len(rp.heat))
	for v, h := range rp.heat {
		entries = append(entries, entry{v, h})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].v < entries[j].v })

	heat := make([]float64, shards)
	total := 0.0
	for _, e := range entries {
		heat[owner(e.v)] += e.score
		total += e.score
	}
	hottest, coolest := 0, 0
	for s := 1; s < shards; s++ {
		if heat[s] > heat[hottest] {
			hottest = s
		}
		if heat[s] < heat[coolest] {
			coolest = s
		}
	}
	rp.lastEvent = rp.applied
	mean := total / float64(shards)
	p := &plan{from: hottest, to: coolest, imbalance: heat[hottest] / mean}
	if p.imbalance < rp.pol.imbalanceRatio() || hottest == coolest {
		p.hold = true
		return p
	}
	cands := entries[:0]
	for _, e := range entries {
		if owner(e.v) == hottest {
			cands = append(cands, e)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if n := rp.pol.maxMove(); len(cands) > n {
		cands = cands[:n]
	}
	for _, c := range cands {
		p.verts = append(p.verts, c.v)
	}
	sort.Slice(p.verts, func(i, j int) bool { return p.verts[i] < p.verts[j] })
	p.ranges = coalesce(p.verts)
	if len(p.ranges) == 0 {
		p.hold = true
	}
	return p
}

// clearHeat forgets migrated vertices so a fresh migration does not
// immediately ping-pong the same ranges back.
func (rp *repartitioner) clearHeat(verts []graph.VertexID) {
	for _, v := range verts {
		delete(rp.heat, v)
	}
}

// coalesce turns a sorted vertex list into contiguous inclusive
// ranges (the "hot vertex ranges" the migration reassigns).
func coalesce(verts []graph.VertexID) []Span {
	var out []Span
	for _, v := range verts {
		if n := len(out); n > 0 && out[n-1].Hi+1 == v {
			out[n-1].Hi = v
			continue
		}
		out = append(out, Span{Lo: v, Hi: v})
	}
	return out
}

// repartitionStep runs after a fully applied batch: it feeds the
// repartitioner and executes any triggered migration while every
// shard is quiescent. Both holds and migrations append a
// DecisionAudit (Controller "repart"), mirroring ABR/OCA's audit
// discipline.
func (r *Router) repartitionStep(b *graph.Batch) bool {
	rp := r.repart
	if rp.pol.Disabled {
		return false
	}
	rp.observe(b)
	if r.cfg.Shards < 2 {
		return false
	}
	p := rp.evaluate(r.cfg.Shards, r.ring.Owner)
	if p == nil {
		return false
	}
	audit := obs.DecisionAudit{
		Controller: "repart",
		BatchID:    b.ID,
		Input:      "shard_imbalance",
		Observed:   p.imbalance,
		Threshold:  rp.pol.imbalanceRatio(),
		Sampled:    true,
		Choice:     "hold",
	}
	migrated := false
	if !p.hold {
		start := time.Now()
		if err := r.migrate(p); err != nil {
			audit.Choice = fmt.Sprintf("migrate %d->%d failed: %v", p.from, p.to, err)
		} else {
			migrated = true
			rp.clearHeat(p.verts)
			audit.Choice = fmt.Sprintf("migrate %d->%d (%d vertices, %d ranges)",
				p.from, p.to, len(p.verts), len(p.ranges))
		}
		audit.RealizedNs = time.Since(start).Nanoseconds()
	}
	r.mu.Lock()
	r.audits = append(r.audits, audit)
	if migrated {
		r.moves++
	}
	r.mu.Unlock()
	return migrated
}

// migrate moves p's hot ranges from shard p.from to p.to through the
// snapshot save/restore path: drain and snapshot both shards, flip
// the ring overlay, then rebuild each side from the union of the two
// snapshots filtered by the new ownership. The union provably covers
// both new edge sets — a migrated vertex's complete adjacency lived
// in the old owner's store — and re-inserting a mirrored duplicate is
// an idempotent weight refresh, so the rebuilt stores are exactly the
// mirroring rule applied to the new assignment. latest_bid metadata
// does not survive the snapshot format; the sharded oracle checks it
// only on migration-free configurations.
func (r *Router) migrate(p *plan) error {
	src, dst := r.shards[p.from], r.shards[p.to]
	src.runner.Finish()
	dst.runner.Finish()

	var bufA, bufB bytes.Buffer
	if err := trace.WriteSnapshot(&bufA, src.runner.Store()); err != nil {
		return fmt.Errorf("snapshot shard %d: %w", p.from, err)
	}
	if err := trace.WriteSnapshot(&bufB, dst.runner.Store()); err != nil {
		return fmt.Errorf("snapshot shard %d: %w", p.to, err)
	}
	snapA, err := trace.ReadSnapshot(bytes.NewReader(bufA.Bytes()))
	if err != nil {
		return fmt.Errorf("restore shard %d: %w", p.from, err)
	}
	snapB, err := trace.ReadSnapshot(bytes.NewReader(bufB.Bytes()))
	if err != nil {
		return fmt.Errorf("restore shard %d: %w", p.to, err)
	}

	// Point of no return: everything below is infallible. Retire the
	// replaced runners' metrics so MetricsSnapshot stays cumulative.
	r.mu.Lock()
	r.retired = append(r.retired, src.runner.MetricsSnapshot().Batches...)
	r.retired = append(r.retired, dst.runner.MetricsSnapshot().Batches...)
	r.mu.Unlock()

	for _, sp := range p.ranges {
		r.ring.Assign(sp.Lo, sp.Hi, p.to)
	}

	// Rebuild at the current vertex space: re-inserting edges would
	// regrow it geometrically to a different size, and the analytics
	// read the vertex count (PageRank's 1/N).
	verts := max(snapA.NumVertices(), snapB.NumVertices())
	for _, side := range [2]int{p.from, p.to} {
		st := graph.NewAdjacencyStore(verts)
		for _, snap := range []*graph.AdjacencyStore{snapA, snapB} {
			seedShard(st, snap, r.ring, side)
		}
		nr := pipeline.NewRunnerWithStore(r.pcfgs[side], st)
		if r.pressure != nil {
			nr.SetPressure(r.pressure)
		}
		r.shards[side].runner = nr
	}
	r.mu.Lock()
	r.edgesDirty = true
	r.mu.Unlock()
	return nil
}

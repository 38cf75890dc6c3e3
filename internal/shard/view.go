package shard

import "streamgraph/internal/graph"

// View is the merged read-only graph over all shards, implementing
// graph.Store by routing every per-vertex read to the vertex's owner —
// whose adjacency is complete under the mirroring rule. The facade's
// analytics engine runs over it after every batch, and it serves the
// server's /neighbors and snapshot endpoints and the sharded oracle
// target's state checks.
//
// The view is live: reads follow the sequential execution contract
// (between batches), like every non-epoch store in this repository.
type View struct {
	r *Router
}

// View returns the merged read view.
func (r *Router) View() *View { return &View{r: r} }

// storeFor returns the owner shard's store for v.
func (v *View) storeFor(u graph.VertexID) *graph.AdjacencyStore {
	return v.r.shards[v.r.ring.Owner(u)].runner.Store()
}

// NumVertices implements graph.Store.
func (v *View) NumVertices() int { return v.r.NumVertices() }

// NumEdges implements graph.Store: each edge counted once, at the
// owner of its source.
func (v *View) NumEdges() int { return v.r.NumEdges() }

// OutDegree implements graph.Store.
func (v *View) OutDegree(u graph.VertexID) int { return v.storeFor(u).OutDegree(u) }

// InDegree implements graph.Store.
func (v *View) InDegree(u graph.VertexID) int { return v.storeFor(u).InDegree(u) }

// ForEachOut implements graph.Store.
func (v *View) ForEachOut(u graph.VertexID, fn func(graph.Neighbor)) {
	v.storeFor(u).ForEachOut(u, fn)
}

// ForEachIn implements graph.Store.
func (v *View) ForEachIn(u graph.VertexID, fn func(graph.Neighbor)) {
	v.storeFor(u).ForEachIn(u, fn)
}

// HasEdge implements graph.Store, answered by the source's owner.
func (v *View) HasEdge(src, dst graph.VertexID) bool {
	return v.storeFor(src).HasEdge(src, dst)
}

// LatestBID returns the last batch ID in which u appeared, read from
// u's owner — which receives every edge incident to u under the
// mirroring rule, so its latest_bid matches the single-node value.
// Migrations rebuild stores from snapshots, which do not carry
// latest_bid; the field is only meaningful on migration-free runs.
func (v *View) LatestBID(u graph.VertexID) int32 {
	return v.storeFor(u).LatestBID(u)
}

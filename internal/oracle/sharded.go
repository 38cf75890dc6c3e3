package oracle

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
)

// ShardedTarget runs batches through an N-shard router whose shards
// run the given update policy: consistent-hash partitioning,
// cross-shard edge mirroring, concurrent fan-out, and — unless repart
// disables it — dynamic repartitioning mid-stream. The merged view
// must match the sequential reference exactly, migrations included.
// The router is returned so tests can assert on migration counts and
// audits.
//
// latest_bid equivalence is checked only on migration-free
// configurations: a migration rebuilds stores through the snapshot
// format, which does not carry the field.
func ShardedTarget(name string, policy pipeline.Policy, shards, numVerts, workers int, repart shard.Policy) (*Target, *shard.Router) {
	r := shard.New(shard.Config{
		Shards:      shards,
		Vertices:    numVerts,
		Pipeline:    pipeline.Config{Policy: policy, Workers: workers},
		Repartition: repart,
	})
	t := &Target{
		Name: name,
		Apply: func(b *graph.Batch) {
			if _, err := r.Apply(b); err != nil {
				panic("oracle: sharded target " + name + " failed: " + err.Error())
			}
		},
		Store: func() graph.Store { return r.View() },
		Finish: func() {
			if err := r.Flush(); err != nil {
				panic("oracle: sharded target " + name + " cannot finish: " + err.Error())
			}
		},
	}
	if repart.Disabled {
		t.Bids = func() BIDReader { return r.View() }
	}
	return t, r
}

package streamgraph

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"streamgraph/internal/fault"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
)

// shardCounts is the shard counts a sharded facade test compares
// against one node: SHARDS=<n> selects one, as for the oracle's shard
// matrix; unset means 2 and 4.
func shardCounts(t *testing.T) []int {
	t.Helper()
	env := os.Getenv("SHARDS")
	if env == "" {
		return []int{2, 4}
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1 {
		t.Fatalf("bad SHARDS=%q", env)
	}
	return []int{n}
}

// TestShardedAnalyticsMatchSingleNode: a sharded system's BFS levels,
// incremental SSSP distances and CC labels equal a single node's
// exactly on adversarial streams, with OCA and the repartitioner at
// their defaults. These answers do not depend on adjacency order, so
// they hold across migrations too.
func TestShardedAnalyticsMatchSingleNode(t *testing.T) {
	const verts = 400
	analytics := []struct {
		name string
		a    Analytics
		read func(*System, VertexID) float64
	}{
		{"bfs", AnalyticsBFS, func(s *System, v VertexID) float64 { return float64(s.Level(v)) }},
		{"sssp", AnalyticsSSSP, func(s *System, v VertexID) float64 { return s.Distance(v) }},
		{"cc", AnalyticsCC, func(s *System, v VertexID) float64 { return float64(s.Component(v)) }},
	}
	for _, kind := range []gen.AdvKind{gen.AdvMixed, gen.AdvDeleteHeavy} {
		batches := gen.AdvSpec{Kind: kind, Seed: 9, Vertices: verts, BatchSize: 120, Batches: 10}.Generate()
		run := func(t *testing.T, a Analytics, shards int) *System {
			sys := New(Config{Vertices: verts, Workers: 2, Analytics: a, Shards: shards})
			for _, b := range batches {
				if _, err := sys.ApplyBatch(b.Edges); err != nil {
					t.Fatal(err)
				}
			}
			sys.Flush()
			return sys
		}
		for _, an := range analytics {
			t.Run(fmt.Sprintf("%s/%s", kind, an.name), func(t *testing.T) {
				want := run(t, an.a, 1)
				for _, shards := range shardCounts(t) {
					got := run(t, an.a, shards)
					if got.NumVertices() != want.NumVertices() {
						t.Fatalf("Shards %d: %d vertices, want %d", shards, got.NumVertices(), want.NumVertices())
					}
					for v := VertexID(0); int(v) < want.NumVertices(); v++ {
						if g, w := an.read(got, v), an.read(want, v); g != w && !(math.IsInf(g, 1) && math.IsInf(w, 1)) {
							t.Fatalf("Shards %d: vertex %d = %v, single node %v", shards, v, g, w)
						}
					}
				}
			})
		}
	}
}

// isolatedRun streams batches through ApplyBatchIsolated, retrying
// each failed batch as a server does, and returns the final ranks and
// the errors seen.
func isolatedRun(t *testing.T, cfg Config, batches []*graph.Batch) ([]float64, []error) {
	t.Helper()
	sys := New(cfg)
	var errs []error
	for _, b := range batches {
		for attempt := 0; ; attempt++ {
			_, err := sys.ApplyBatchIsolated(b.Edges)
			if err == nil {
				break
			}
			errs = append(errs, err)
			if attempt >= 4 {
				t.Fatalf("batch %d never succeeded: %v", b.ID, err)
			}
		}
	}
	if err := sys.FlushIsolated(); err != nil {
		t.Fatal(err)
	}
	return sys.Ranks(), errs
}

// TestShardedComputePanicIsolated: a panic in a sharded system's
// computation round returns as an error from ApplyBatchIsolated instead
// of crashing, and the retried stream ends where one node's does under
// the same fault schedule, bit for bit.
func TestShardedComputePanicIsolated(t *testing.T) {
	batches := gen.AdvSpec{Kind: gen.AdvOverlap, Seed: 2, Vertices: 1000, BatchSize: 300, Batches: 10}.Generate()
	ranks := make([][]float64, 2)
	for i, shards := range []int{1, 2} {
		o := NewObserver(-1)
		cfg := Config{Vertices: 1000, Workers: 1, Shards: shards, Analytics: AnalyticsPageRank,
			DisableOCA: true, Observer: o,
			Fault: NewFaultInjector(FaultSpec{ComputePanicEvery: 3})}
		var errs []error
		ranks[i], errs = isolatedRun(t, cfg, batches)
		if len(errs) == 0 {
			t.Fatalf("Shards %d: the fault schedule injected no panic", shards)
		}
		for _, err := range errs {
			var pe *pipeline.PanicError
			var inj fault.Injected
			if !errors.As(err, &pe) || !errors.As(err, &inj) || inj.Point != fault.ComputePanic {
				t.Fatalf("Shards %d: error %v is not an isolated compute panic", shards, err)
			}
		}
		if got := o.PanicsTotal.Value(); got != int64(len(errs)) {
			t.Fatalf("Shards %d: observer counted %d panics, want %d", shards, got, len(errs))
		}
	}
	for v := range ranks[0] {
		if math.Float64bits(ranks[0][v]) != math.Float64bits(ranks[1][v]) {
			t.Fatalf("vertex %d: sharded %v, single node %v", v, ranks[1][v], ranks[0][v])
		}
	}
}

// TestShardedShedParksRounds: at or above Shed.SkipComputeAt a sharded
// system parks each batch's round, as a pipeline's skip-compute rung
// does, and the first round after the pressure drops covers every
// parked batch. The ranks end where one node's do, bit for bit. The
// pressure is read once per batch, and the observer counts the same
// rounds and shed batches as one node's.
func TestShardedShedParksRounds(t *testing.T) {
	batches := gen.AdvSpec{Kind: gen.AdvMixed, Seed: 3, Vertices: 1000, BatchSize: 300, Batches: 8}.Generate()
	ranks := make([][]float64, 2)
	var counts [2][3]int64
	for i, shards := range []int{1, 2} {
		o := NewObserver(-1)
		sys := New(Config{Vertices: 1000, Workers: 1, Shards: shards, Analytics: AnalyticsPageRank,
			DisableOCA: true, Shed: ShedConfig{SkipComputeAt: 0.5}, Observer: o})
		pressure, reads := 0.0, 0
		sys.SetPressureSource(func() float64 { reads++; return pressure })
		for j, b := range batches {
			want := 1
			pressure = 0
			switch {
			case j >= 2 && j <= 4:
				pressure, want = 1, 0
			case j == 5:
				want = 4 // the three parked batches and this one
			}
			res, err := sys.ApplyBatch(b.Edges)
			if err != nil {
				t.Fatal(err)
			}
			if res.ComputedBatches != want {
				t.Fatalf("Shards %d: batch %d's round covered %d batches, want %d", shards, j, res.ComputedBatches, want)
			}
		}
		sys.Flush()
		ranks[i] = sys.Ranks()
		if reads != len(batches) {
			t.Fatalf("Shards %d: pressure read %d times over %d batches", shards, reads, len(batches))
		}
		counts[i] = [3]int64{o.ComputeRoundsTotal.Value(), o.DeferredRoundsTotal.Value(), o.ShedSkipComputeTotal.Value()}
	}
	if counts[0] != counts[1] || counts[0][1] != 3 {
		t.Fatalf("rounds/deferred/shed: single node %v, sharded %v; want 3 deferred", counts[0], counts[1])
	}
	for v := range ranks[0] {
		if math.Float64bits(ranks[0][v]) != math.Float64bits(ranks[1][v]) {
			t.Fatalf("vertex %d: sharded %v, single node %v", v, ranks[1][v], ranks[0][v])
		}
	}
}

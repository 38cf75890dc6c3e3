// Benchmark harness: one testing.B target per paper artifact (Table
// 1-3, Figs. 1-20), each regenerating the artifact through
// internal/bench in quick mode, plus micro-benchmarks of the core
// primitives. For the full-scale sweeps (paper batch sizes up to
// 500K, all 14 datasets), run the cmd/sgbench tool:
//
//	go run ./cmd/sgbench -exp all        # full default sweep
//	go run ./cmd/sgbench -exp fig3 -full # adds the 500K batch size
package streamgraph

import (
	"fmt"
	"io"
	"testing"

	"streamgraph/internal/bench"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/hau"
	"streamgraph/internal/sim"
	"streamgraph/internal/update"
)

// runExperiment regenerates one artifact per iteration (quick mode).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := bench.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

func BenchmarkFig1(b *testing.B)    { runExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFig13(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)   { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)   { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)   { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)   { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)   { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)   { runExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)   { runExperiment(b, "fig20") }
func BenchmarkTab1(b *testing.B)    { runExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)    { runExperiment(b, "tab2") }
func BenchmarkTab3(b *testing.B)    { runExperiment(b, "tab3") }
func BenchmarkSummary(b *testing.B) { runExperiment(b, "summary") }

// ---- micro-benchmarks of the core primitives ----

func benchBatches(size int) []*graph.Batch {
	p, _ := gen.ProfileByName("wiki")
	p.WarmupEdges = 0
	return gen.Batches(p, size, 4)
}

// BenchmarkUpdateBaseline measures the real locked edge-parallel
// engine's ingestion throughput.
func BenchmarkUpdateBaseline(b *testing.B) {
	batches := benchBatches(10000)
	eng := &update.Baseline{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NewAdjacencyStore(150000)
		for _, batch := range batches {
			eng.Apply(s, batch)
		}
	}
	b.SetBytes(int64(4 * 10000 * 16))
}

// BenchmarkUpdateReordered measures the real RO engine.
func BenchmarkUpdateReordered(b *testing.B) {
	batches := benchBatches(10000)
	eng := &update.Reordered{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NewAdjacencyStore(150000)
		for _, batch := range batches {
			eng.Apply(s, batch)
		}
	}
	b.SetBytes(int64(4 * 10000 * 16))
}

// BenchmarkUpdateUSC measures the real RO+USC engine.
func BenchmarkUpdateUSC(b *testing.B) {
	batches := benchBatches(10000)
	eng := &update.Reordered{USC: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NewAdjacencyStore(150000)
		for _, batch := range batches {
			eng.Apply(s, batch)
		}
	}
	b.SetBytes(int64(4 * 10000 * 16))
}

// BenchmarkSimulatedHAUBatch measures simulator throughput (simulated
// batch ingestion per wall second).
func BenchmarkSimulatedHAUBatch(b *testing.B) {
	batches := benchBatches(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := hau.NewSimulator(sim.DefaultConfig(), hau.ModeHAU)
		g := graph.NewAdjacencyStore(150000)
		for _, batch := range batches {
			s.SimulateBatch(batch, g)
			for _, e := range batch.Edges {
				g.InsertEdge(e)
			}
		}
	}
}

// BenchmarkStreamGeneration measures the dataset generator.
func BenchmarkStreamGeneration(b *testing.B) {
	p, _ := gen.ProfileByName("lj")
	s := gen.NewStream(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextEdge()
	}
}

// BenchmarkSystemIngest measures the public facade end to end
// (adaptive updates + incremental PageRank).
func BenchmarkSystemIngest(b *testing.B) {
	p, _ := gen.ProfileByName("fb")
	batches := gen.Batches(p, 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := New(Config{Vertices: p.Vertices, Analytics: AnalyticsPageRank})
		for _, batch := range batches {
			if _, err := sys.ApplyBatch(batch.Edges); err != nil {
				b.Fatal(err)
			}
		}
		sys.Flush()
	}
}

// BenchmarkShardedRankQuery streams 40 AdvOverlap batches of 5 000
// edges over 50 000 vertices through the facade with OCA off and reads
// a rank after every Query-th batch (never for Query=0), so
// query-heavy and ingest-heavy traffic both show. Sub-benchmarks vary
// the shard and worker counts; ms/batch is the figure to compare.
func BenchmarkShardedRankQuery(b *testing.B) {
	const verts, batches = 50000, 40
	stream := gen.AdvSpec{Kind: gen.AdvOverlap, Seed: 1, Vertices: verts, BatchSize: 5000, Batches: batches}.Generate()
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			for _, every := range []int{1, 20, 0} {
				b.Run(fmt.Sprintf("Shards=%d/Workers=%d/Query=%d", shards, workers, every), func(b *testing.B) {
					sum := 0.0
					for i := 0; i < b.N; i++ {
						sys := New(Config{Vertices: verts, Shards: shards, Workers: workers,
							Analytics: AnalyticsPageRank, DisableOCA: true})
						for j, batch := range stream {
							if _, err := sys.ApplyBatch(batch.Edges); err != nil {
								b.Fatal(err)
							}
							if every > 0 && (j+1)%every == 0 {
								sum += sys.Rank(batch.Edges[0].Dst)
							}
						}
					}
					if every > 0 && sum <= 0 {
						b.Fatal("no rank was read")
					}
					b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*batches), "ms/batch")
				})
			}
		}
	}
}

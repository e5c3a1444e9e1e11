package step

import (
	"fmt"
	"runtime"
	"testing"

	"step/internal/des"
	"step/internal/element"
	"step/internal/experiments"
	"step/internal/trace"
	"step/internal/workloads"
)

// benchSuite shrinks sweeps so each benchmark iteration stays fast while
// still executing the full experiment pipeline.
func benchSuite() experiments.Suite { return experiments.Suite{Seed: 7, Quick: true} }

// runExperiment executes one paper artifact per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	s := benchSuite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := r.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per paper table/figure, named for the artifact each
// regenerates (see DESIGN.md's per-experiment index).

func BenchmarkTable1Landscape(b *testing.B)                 { runExperiment(b, "table1") }
func BenchmarkFigure1Roofline(b *testing.B)                 { runExperiment(b, "fig1") }
func BenchmarkFigure8Validation(b *testing.B)               { runExperiment(b, "fig8") }
func BenchmarkFigure9DynamicTiling(b *testing.B)            { runExperiment(b, "fig9") }
func BenchmarkFigure10DynamicTilingLargeBatch(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFigure12TimeMultiplexUtilization(b *testing.B) {
	runExperiment(b, "fig12")
}
func BenchmarkFigure13TimeMultiplexResources(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFigure14DynamicParallelization(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFigure15BatchSweep(b *testing.B)              { runExperiment(b, "fig15") }
func BenchmarkFigure17EndToEnd(b *testing.B)                { runExperiment(b, "fig17") }
func BenchmarkFigure18Transform(b *testing.B)               { runExperiment(b, "fig18") }
func BenchmarkFigure19TrafficPareto(b *testing.B)           { runExperiment(b, "fig19") }
func BenchmarkFigure20TrafficParetoLargeBatch(b *testing.B) { runExperiment(b, "fig20") }
func BenchmarkFigure21ParallelizationAblation(b *testing.B) { runExperiment(b, "fig21") }

// benchWorkerCounts compares the sequential path against all cores,
// skipping the duplicate case on single-CPU machines.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkSuiteParallel measures the experiment harness fan-out on the
// sweep-heavy figures (9/10/15/19/20/21): each ID runs at Workers=1
// (the pre-harness sequential path) and Workers=GOMAXPROCS, so the
// parallel speedup is a measured ratio rather than an assertion.
func BenchmarkSuiteParallel(b *testing.B) {
	ids := []string{"fig9", "fig10", "fig15", "fig19", "fig20", "fig21"}
	counts := benchWorkerCounts()
	for _, id := range ids {
		for _, w := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", id, w), func(b *testing.B) {
				r, ok := experiments.Lookup(id)
				if !ok {
					b.Fatalf("unknown experiment %q", id)
				}
				s := benchSuite()
				s.Workers = w
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tb, err := r.Run(s)
					if err != nil {
						b.Fatal(err)
					}
					if len(tb.Rows) == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkRunAll measures the whole-registry fan-out behind
// `stepctl exp`: all fourteen artifacts at Workers=1 vs all cores.
func BenchmarkRunAll(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := benchSuite()
			s.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, oc := range experiments.RunAll(s, experiments.All(), nil) {
					if oc.Err != nil {
						b.Fatalf("%s: %v", oc.Runner.ID, oc.Err)
					}
				}
			}
		})
	}
}

// benchSimWorkers returns the DES engine configurations to compare: the
// sequential reference engine (1) and the conservative parallel engine at
// the 2/4/8-core points, so BENCH_core.json tracks a scaling curve rather
// than a single ratio.
func benchSimWorkers() []int { return []int{1, 2, 4, 8} }

// pinGOMAXPROCS models a w-core runner for a sim-workers=w variant by
// capping GOMAXPROCS at min(w, NumCPU) for the variant's duration. On a
// machine with fewer cores than w the cap is the machine itself — the
// recorded point then measures oversubscription, not scaling, which is
// why BENCH_core.json carries num_cpu (see PERFORMANCE.md).
func pinGOMAXPROCS(w int) (restore func()) {
	n := w
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	if n < 1 {
		n = 1
	}
	old := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}

// BenchmarkEngineCompare measures the same simulations on the sequential
// and the DAM-style parallel DES engine (identical results by
// construction; see internal/des). make bench-json renders these into
// BENCH_core.json so the perf trajectory of the simulator core is
// tracked over time.
func BenchmarkEngineCompare(b *testing.B) {
	for _, id := range []string{"fig10", "fig17"} {
		r, ok := experiments.Lookup(id)
		if !ok {
			b.Fatalf("unknown experiment %q", id)
		}
		for _, w := range benchSimWorkers() {
			b.Run(fmt.Sprintf("%s/sim-workers=%d", id, w), func(b *testing.B) {
				defer pinGOMAXPROCS(w)()
				s := benchSuite()
				// Workers=1 disables the harness's sweep-point fan-out so
				// the measured speedup isolates the DES engine.
				s.Workers = 1
				s.SimWorkers = w
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tb, err := r.Run(s)
					if err != nil {
						b.Fatal(err)
					}
					if len(tb.Rows) == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
	m := workloads.Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchSimWorkers() {
		b.Run(fmt.Sprintf("moe-layer/sim-workers=%d", w), func(b *testing.B) {
			defer pinGOMAXPROCS(w)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
					Model: m, Batch: 64, Dynamic: true, Routing: routing, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := l.Program.Run(WithSimWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	kv := trace.SampleKVLengths(64, 2048, trace.VarHigh, 7)
	for _, w := range benchSimWorkers() {
		b.Run(fmt.Sprintf("attention/sim-workers=%d", w), func(b *testing.B) {
			defer pinGOMAXPROCS(w)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := workloads.BuildAttention(workloads.AttentionConfig{
					Model: m, KVLens: kv, Strategy: workloads.DynamicParallel,
					Regions: 4, KVChunk: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Program.Run(WithSimWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymbolicMetrics measures the §4.2 symbolic-frontend path:
// building a full MoE graph and evaluating its traffic and on-chip
// equations under the trace bindings.
func BenchmarkSymbolicMetrics(b *testing.B) {
	m := workloads.Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
			Model: m, Batch: 64, TileSize: 16, Routing: routing, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.OnchipBytes(); err != nil {
			b.Fatal(err)
		}
		if _, err := l.SymbolicTrafficBytes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESChannel measures the simulation kernel's raw throughput:
// a producer/consumer pair moving one million elements.
func BenchmarkDESChannel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		ch := des.NewChan[int](sim, "c", 16, 1)
		const n = 100000
		sim.Spawn("prod", func(p *des.Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				ch.Send(p, j)
			}
			ch.Close(p)
			return nil
		})
		sim.Spawn("cons", func(p *des.Process) error {
			for {
				if _, ok := ch.Recv(p); !ok {
					return nil
				}
				p.Advance(1)
			}
		})
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoELayerSimulation measures one batch-64 MoE layer simulation
// (the unit of work behind Figs. 9/12/13).
func BenchmarkMoELayerSimulation(b *testing.B) {
	m := workloads.Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
			Model: m, Batch: 64, Dynamic: true, Routing: routing, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Program.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttentionSimulation measures one batch-64 dynamic-parallel
// attention simulation (the unit of work behind Figs. 14/15/21).
func BenchmarkAttentionSimulation(b *testing.B) {
	m := workloads.Qwen3Config().Scaled(8)
	kv := trace.SampleKVLengths(64, 2048, trace.VarHigh, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := workloads.BuildAttention(workloads.AttentionConfig{
			Model: m, KVLens: kv, Strategy: workloads.DynamicParallel,
			Regions: 4, KVChunk: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Program.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimpleMoE measures the §3.3 walkthrough end to end, including
// functional verification data movement.
func BenchmarkSimpleMoE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		moe, err := workloads.BuildSimpleMoE(workloads.DefaultSimpleMoEConfig())
		if err != nil {
			b.Fatal(err)
		}
		sess, err := moe.Program.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out, _ := sess.Captured(moe.Output.Name()); element.CountData(out) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkCompileOnceRunMany measures the payoff of the Program API's
// build/run split: one compiled MoE-layer program run repeatedly
// (fresh engine state per run) against rebuilding the whole graph
// before every run.
func BenchmarkCompileOnceRunMany(b *testing.B) {
	m := workloads.Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workloads.MoELayerConfig{
		Model: m, Batch: 64, Dynamic: true, Routing: routing, Seed: 7,
	}
	b.Run("compile-once", func(b *testing.B) {
		l, err := workloads.BuildMoELayer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Program.Run(WithSeed(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-per-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := workloads.BuildMoELayer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.Program.Run(WithSeed(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package step_test

import (
	"testing"

	"step"
	"step/internal/trace"
	"step/internal/workloads"
)

// TestSchedStatsGate is the CI contention gate for the parallel engine's
// sharded wake-up machinery (run by `make bench-smoke`). The counters it
// checks depend on the workload's virtual-time structure, not on core
// count or wall-clock interleaving, so the bounds hold on any hardware —
// including the 1-CPU runner where wall-clock speedups are meaningless.
//
// Reference points on moe-layer (Qwen3 scaled /8, batch 64, dynamic
// tiling, skew-heavy routing, seed 7, sim-workers=8):
//
//   - pre-shard engine (global O(parked) kick scan): scanned/lift = 510.73
//   - sharded engine (per-endpoint waiter lists):    scanned/lift ≈ 0.59
//
// The gate asserts scanned/lift <= 10 — a 51x margin over the measured
// value and still 51x below the pre-shard engine — so it fails loudly if
// a global scan ever creeps back into the lift path, without flaking on
// benign scheduling jitter. It also pins the sequential engine's
// counters, which are exact, on the same layer and on an attention run.
func TestSchedStatsGate(t *testing.T) {
	m := workloads.Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 7)
	if err != nil {
		t.Fatal(err)
	}
	l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
		Model: m, Batch: 64, Dynamic: true, Routing: routing, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := l.Program.Run(step.WithSimWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	s := sess.Result.Sched
	t.Logf("sched: lifts=%d lift-fastpath=%d kicks=%d scanned=%d woken=%d grants=%d grant-fastpath=%d scanned/lift=%.3f",
		s.Lifts, s.LiftFastPath, s.Kicks, s.Scanned, s.Woken, s.Grants, s.GrantFastPath, s.ScannedPerLift())

	if s.Lifts == 0 || s.Grants == 0 {
		t.Fatalf("gate workload lost its contention shape: lifts=%d grants=%d (both must be > 0)", s.Lifts, s.Grants)
	}
	if spl := s.ScannedPerLift(); spl > 10 {
		t.Errorf("scanned/lift = %.2f, want <= 10 (sharded engine measures ~0.59; the pre-shard global scan measured 510.73)", spl)
	}
	// The lift fast path is the batched-lift claim: the overwhelming
	// majority of clock movements must touch no scheduler state beyond
	// two atomic threshold loads.
	if frac := float64(s.LiftFastPath) / float64(s.Lifts); frac < 0.5 {
		t.Errorf("lift fast-path fraction = %.2f, want >= 0.5 (measured ~0.93)", frac)
	}
	// The sequential engine's counters are a pure function of the
	// program, so they are pinned exactly: the same MoE layer, and a
	// dynamic-parallel attention run. Woken counts coroutine resumes,
	// Kicks the bound-solver runs when nothing was runnable.
	l2, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
		Model: m, Batch: 64, Dynamic: true, Routing: routing, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := workloads.BuildAttention(workloads.AttentionConfig{
		Model: m, KVLens: trace.SampleKVLengths(64, 2048, trace.VarHigh, 7),
		Strategy: workloads.DynamicParallel, Regions: 4, KVChunk: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *step.Program
		want step.SchedStats
	}{
		{"moe-layer", l2.Program, step.SchedStats{Woken: 8720, Grants: 783}},
		{"attention", a.Program, step.SchedStats{Kicks: 33, Woken: 5008, Grants: 2217, GrantFastPath: 318}},
	} {
		sess, err := tc.prog.Run(step.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Result.Sched; got != tc.want {
			t.Errorf("%s: sequential SchedStats = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

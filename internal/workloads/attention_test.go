package workloads

import (
	"testing"

	"step/internal/graph"
	"step/internal/trace"
)

func attnConfig(strategy ParallelStrategy, kvLens []int) AttentionConfig {
	return AttentionConfig{
		Model:    Qwen3Config().Scaled(8),
		KVLens:   kvLens,
		Strategy: strategy,
		Regions:  4,
		KVChunk:  64,
	}
}

func runAttention(t *testing.T, cfg AttentionConfig) (*Attention, *graph.Session) {
	t.Helper()
	a, err := BuildAttention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := a.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	return a, sess
}

func TestAttentionAllStrategiesComplete(t *testing.T) {
	kv := trace.SampleKVLengths(16, 512, trace.VarMed, 3)
	for _, s := range []ParallelStrategy{StaticCoarse, StaticInterleaved, DynamicParallel} {
		a, sess := runAttention(t, attnConfig(s, kv))
		if got := a.CompletedRequests(sess); got != 16 {
			t.Fatalf("%v: %d requests completed, want 16", s, got)
		}
		if res := sess.Result; res.Cycles == 0 || res.OffchipTrafficBytes == 0 {
			t.Fatalf("%v: empty result", s)
		}
	}
}

func TestAttentionTrafficMatchesKVBytes(t *testing.T) {
	kv := []int{100, 200, 300, 400, 500, 600, 700, 800}
	cfg := attnConfig(StaticInterleaved, kv)
	_, sess := runAttention(t, cfg)
	// Each request streams ceil(L/chunk) chunks of chunk×width×2 bytes.
	width := 2 * cfg.Model.KVHeads * cfg.Model.HeadDim
	var want int64
	for _, l := range kv {
		chunks := (l + cfg.KVChunk - 1) / cfg.KVChunk
		want += int64(chunks) * int64(cfg.KVChunk) * int64(width) * 2
	}
	if sess.Result.OffchipTrafficBytes != want {
		t.Fatalf("traffic = %d, want %d", sess.Result.OffchipTrafficBytes, want)
	}
}

func TestAttentionDynamicBeatsCoarseAtSmallBatch(t *testing.T) {
	// Fig. 15: at batch 16 with 4 regions, coarse blocks leave regions
	// idle while dynamic work-steals.
	kv := trace.SampleKVLengths(16, 1024, trace.VarHigh, 7)
	_, sessC := runAttention(t, attnConfig(StaticCoarse, kv))
	_, sessD := runAttention(t, attnConfig(DynamicParallel, kv))
	if sessD.Result.Cycles >= sessC.Result.Cycles {
		t.Fatalf("dynamic %d should beat coarse %d", sessD.Result.Cycles, sessC.Result.Cycles)
	}
}

func TestAttentionDynamicBeatsInterleavedUnderHighVariance(t *testing.T) {
	// Fig. 14: higher KV variance favors dynamic over interleaved.
	kv := trace.SampleKVLengths(64, 1024, trace.VarHigh, 11)
	_, sessI := runAttention(t, attnConfig(StaticInterleaved, kv))
	_, sessD := runAttention(t, attnConfig(DynamicParallel, kv))
	if sessD.Result.Cycles >= sessI.Result.Cycles {
		t.Fatalf("dynamic %d should beat interleaved %d under high variance", sessD.Result.Cycles, sessI.Result.Cycles)
	}
}

func TestAttentionMicrobatches(t *testing.T) {
	kv := trace.SampleKVLengths(24, 512, trace.VarMed, 5)
	cfg := attnConfig(StaticCoarse, kv)
	cfg.Microbatches = []int{16, 8}
	a, sess := runAttention(t, cfg)
	if got := a.CompletedRequests(sess); got != 24 {
		t.Fatalf("completed %d", got)
	}
	cfg.Microbatches = []int{16, 9}
	if _, err := BuildAttention(cfg); err == nil {
		t.Fatal("expected microbatch sum error")
	}
}

func TestAttentionRejectsBadConfigs(t *testing.T) {
	if _, err := BuildAttention(attnConfig(StaticCoarse, nil)); err == nil {
		t.Fatal("expected empty batch error")
	}
	cfg := attnConfig(StaticCoarse, []int{100, 100})
	cfg.Regions = 4
	if _, err := BuildAttention(cfg); err == nil {
		t.Fatal("expected batch < regions error")
	}
}

func TestInterleavedNeedsDeepRegionFIFOs(t *testing.T) {
	// Appendix B.5: static interleaved parallelization needs large buffers
	// in front of each region; with shallow FIFOs, a long request blocks
	// the dispatcher and idles the other regions.
	kv := trace.SampleKVLengths(64, 2048, trace.VarHigh, 9)
	run := func(depth int) uint64 {
		cfg := attnConfig(StaticInterleaved, kv)
		cfg.RegionFIFODepth = depth
		a, err := BuildAttention(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Shallow pipeline channels everywhere so the region-input FIFO is
		// the only buffering in front of each region.
		sess, err := a.Program.Run(graph.WithChannelDepth(2))
		if err != nil {
			t.Fatal(err)
		}
		return uint64(sess.Result.Cycles)
	}
	shallow := run(2)
	deep := run(0)
	if shallow <= deep {
		t.Fatalf("shallow FIFOs (%d cycles) should be slower than deep (%d)", shallow, deep)
	}
}

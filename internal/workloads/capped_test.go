package workloads

import (
	"testing"

	"step/internal/graph"
	"step/internal/trace"
)

func TestMoECappedDynamicFunctional(t *testing.T) {
	// Capacity-bounded dynamic tiling computes identical results.
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, Dynamic: true, DynamicCap: 3,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

func TestMoECappedDynamicTimeMultiplexedFunctional(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, Dynamic: true, DynamicCap: 3, Regions: 2,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

func TestMoECappedDynamicSymbolicTraffic(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, Dynamic: true, DynamicCap: 4,
		Routing: tinyRouting(t, 13, m, 9), Functional: true, Seed: 9,
	}
	l, res, _ := runMoE(t, cfg)
	sym, err := l.SymbolicTrafficBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sym != res.OffchipTrafficBytes {
		t.Fatalf("symbolic %d != measured %d", sym, res.OffchipTrafficBytes)
	}
}

func TestMoECapRestoresPipelining(t *testing.T) {
	// At a large batch, capped dynamic tiling should beat uncapped on
	// cycles (experts emit tiles while the batch still routes).
	m := Qwen3Config().Scaled(8)
	routing, err := trace.SampleExpertRouting(512, m.NumExperts, m.TopK, trace.SkewHeavy, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cap int) uint64 {
		l, err := BuildMoELayer(MoELayerConfig{
			Model: m, Batch: 512, Dynamic: true, DynamicCap: cap,
			Routing: routing, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := l.Program.Run()
		if err != nil {
			t.Fatal(err)
		}
		return uint64(sess.Result.Cycles)
	}
	uncapped := run(0)
	capped := run(64)
	if capped >= uncapped {
		t.Fatalf("capped %d should beat uncapped %d at large batch", capped, uncapped)
	}
}

func TestAttentionQKVStage(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	kv := trace.SampleKVLengths(8, 256, trace.VarLow, 2)
	build := func(qkv bool) graph.Result {
		a, err := BuildAttention(AttentionConfig{
			Model: m, KVLens: kv, Strategy: StaticInterleaved,
			Regions: 4, KVChunk: 64, IncludeQKV: qkv,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := a.Program.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sess.Result
	}
	without := build(false)
	with := build(true)
	if with.TotalFLOPs <= without.TotalFLOPs {
		t.Fatalf("QKV should add FLOPs: %d vs %d", with.TotalFLOPs, without.TotalFLOPs)
	}
	if with.OffchipTrafficBytes <= without.OffchipTrafficBytes {
		t.Fatalf("QKV should add weight traffic: %d vs %d",
			with.OffchipTrafficBytes, without.OffchipTrafficBytes)
	}
}

func TestMixtralTinyTimeMultiplexed(t *testing.T) {
	// Mixtral-shaped tiny model (few large experts) through the
	// time-multiplexed path.
	m := ModelConfig{
		Name: "tiny-mixtral", Hidden: 8, Inter: 16, NumExperts: 2, TopK: 1,
		QHeads: 2, KVHeads: 2, HeadDim: 4, Layers: 2, WeightStrip: 8,
	}
	r, err := trace.SampleExpertRouting(9, m.NumExperts, m.TopK, trace.SkewModerate, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MoELayerConfig{
		Model: m, Batch: 9, TileSize: 4, Regions: 1,
		Routing: r, Functional: true, Seed: 4,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

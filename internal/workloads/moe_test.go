package workloads

import (
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/tile"
	"step/internal/trace"
)

// tinyModel is a small functional-test model.
func tinyModel() ModelConfig {
	return ModelConfig{
		Name: "tiny", Hidden: 8, Inter: 8, NumExperts: 4, TopK: 2,
		QHeads: 2, KVHeads: 1, HeadDim: 4, Layers: 2, WeightStrip: 4,
	}
}

func tinyRouting(t *testing.T, batch int, m ModelConfig, seed uint64) trace.ExpertRouting {
	t.Helper()
	r, err := trace.SampleExpertRouting(batch, m.NumExperts, m.TopK, trace.SkewModerate, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// moeReference computes the expected per-token outputs directly.
func moeReference(l *MoELayer) *tile.Tile {
	cfg := l.Cfg
	m := cfg.Model
	out := tile.New(cfg.Batch, m.Hidden)
	for i, as := range cfg.Routing.Assignments {
		x := l.input.Slice(i, i+1, 0, m.Hidden)
		acc := tile.New(1, m.Hidden)
		for _, e := range as {
			a := tile.MatMul(x, l.w1[e])
			c := tile.MatMul(x, l.w3[e])
			h := tile.Mul(tile.SiLU(a), c)
			y := tile.MatMul(h, l.w2[e])
			tile.AddInto(acc, y)
		}
		for cI := 0; cI < m.Hidden; cI++ {
			out.Set(i, cI, acc.At(0, cI))
		}
	}
	return out
}

// runMoE builds, runs, and extracts output rows.
func runMoE(t *testing.T, cfg MoELayerConfig) (*MoELayer, graph.Result, []*tile.Tile) {
	t.Helper()
	l, err := BuildMoELayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := l.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := sess.Captured(l.Output.Name())
	var rows []*tile.Tile
	for _, e := range out {
		if e.IsData() {
			rows = append(rows, e.Value.(element.TileVal).T)
		}
	}
	return l, sess.Result, rows
}

func checkAgainstReference(t *testing.T, l *MoELayer, rows []*tile.Tile) {
	t.Helper()
	if len(rows) != l.Cfg.Batch {
		t.Fatalf("%d output rows, want %d", len(rows), l.Cfg.Batch)
	}
	ref := moeReference(l)
	for i, r := range rows {
		want := ref.Slice(i, i+1, 0, l.Cfg.Model.Hidden)
		if !tile.Equal(r, want, 1e-2) {
			t.Fatalf("token %d mismatch: got %v want %v", i, r.Data[:4], want.Data[:4])
		}
	}
}

func TestMoEStaticTilingFunctional(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, TileSize: 4,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, res, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
	if res.TotalFLOPs == 0 || res.OffchipTrafficBytes == 0 {
		t.Fatal("no work recorded")
	}
}

func TestMoEDynamicTilingFunctional(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, Dynamic: true,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

func TestMoETimeMultiplexedFunctional(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, TileSize: 4, Regions: 2,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

func TestMoETimeMultiplexedDynamicFunctional(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, Dynamic: true, Regions: 2,
		Routing: tinyRouting(t, 13, m, 5), Functional: true, Seed: 5,
	}
	l, _, rows := runMoE(t, cfg)
	checkAgainstReference(t, l, rows)
}

func TestMoEDynamicAvoidsPaddingFLOPs(t *testing.T) {
	m := tinyModel()
	routing := tinyRouting(t, 13, m, 7)
	st := MoELayerConfig{Model: m, Batch: 13, TileSize: 8, Routing: routing, Functional: true, Seed: 7}
	dy := MoELayerConfig{Model: m, Batch: 13, Dynamic: true, Routing: routing, Functional: true, Seed: 7}
	_, resS, _ := runMoE(t, st)
	_, resD, _ := runMoE(t, dy)
	if resS.TotalFLOPs <= resD.TotalFLOPs {
		t.Fatalf("static FLOPs %d should exceed dynamic %d (padding)", resS.TotalFLOPs, resD.TotalFLOPs)
	}
	// Dynamic loads each expert's weights once; static reloads per tile.
	if resS.OffchipTrafficBytes < resD.OffchipTrafficBytes {
		t.Fatalf("static traffic %d below dynamic %d", resS.OffchipTrafficBytes, resD.OffchipTrafficBytes)
	}
}

func TestMoESymbolicTrafficMatchesMeasured(t *testing.T) {
	m := tinyModel()
	for _, dyn := range []bool{false, true} {
		cfg := MoELayerConfig{
			Model: m, Batch: 13, TileSize: 4, Dynamic: dyn,
			Routing: tinyRouting(t, 13, m, 9), Functional: true, Seed: 9,
		}
		l, res, _ := runMoE(t, cfg)
		sym, err := l.SymbolicTrafficBytes()
		if err != nil {
			t.Fatal(err)
		}
		if sym != res.OffchipTrafficBytes {
			t.Fatalf("dyn=%v: symbolic traffic %d != measured %d", dyn, sym, res.OffchipTrafficBytes)
		}
	}
}

func TestMoEOnchipRequirement(t *testing.T) {
	m := tinyModel()
	cfg := MoELayerConfig{
		Model: m, Batch: 13, TileSize: 4,
		Routing: tinyRouting(t, 13, m, 9), Functional: true, Seed: 9,
	}
	l, err := BuildMoELayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.OnchipBytes()
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("onchip requirement = %d", v)
	}
}

func TestMoETimeMultiplexReducesAllocatedCompute(t *testing.T) {
	m := tinyModel()
	routing := tinyRouting(t, 13, m, 3)
	full := MoELayerConfig{Model: m, Batch: 13, TileSize: 4, Routing: routing, Functional: true, Seed: 3}
	tm := MoELayerConfig{Model: m, Batch: 13, TileSize: 4, Regions: 1, Routing: routing, Functional: true, Seed: 3}
	lf, err := BuildMoELayer(full)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := BuildMoELayer(tm)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Program.AllocatedComputeBW() >= lf.Program.AllocatedComputeBW() {
		t.Fatalf("time-multiplexed alloc %d should be below dedicated %d",
			lt.Program.AllocatedComputeBW(), lf.Program.AllocatedComputeBW())
	}
}

func TestMoERejectsBadConfigs(t *testing.T) {
	m := tinyModel()
	routing := tinyRouting(t, 4, m, 1)
	bad := []MoELayerConfig{
		{Model: m, Batch: 5, TileSize: 4, Routing: routing},             // batch mismatch
		{Model: m, Batch: 4, TileSize: 0, Routing: routing},             // no tile size
		{Model: m, Batch: 4, TileSize: 4, Regions: 3, Routing: routing}, // indivisible regions
	}
	for i, cfg := range bad {
		if _, err := BuildMoELayer(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

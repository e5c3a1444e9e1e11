package workloads

import (
	"testing"

	"step/internal/tile"
)

func TestSimpleMoEFunctionalCorrectness(t *testing.T) {
	cfg := DefaultSimpleMoEConfig()
	m, err := BuildSimpleMoE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.OutputRows(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.Rows {
		t.Fatalf("%d rows, want %d", len(rows), cfg.Rows)
	}
	ref := m.Reference()
	for i, r := range rows {
		if r.Rows != 1 || r.Cols != cfg.Out {
			t.Fatalf("row %d shape %s", i, r)
		}
		want := ref.Slice(i, i+1, 0, cfg.Out)
		if !tile.Equal(r, want, 1e-3) {
			t.Fatalf("row %d mismatch: got %f want %f", i, r.At(0, 0), want.At(0, 0))
		}
	}
}

func TestSimpleMoEMetrics(t *testing.T) {
	cfg := DefaultSimpleMoEConfig()
	m, err := BuildSimpleMoE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Result
	// Weight traffic: each packed tile triggers a full weight read per
	// expert. 10 rows over 2 experts, pack 4 => between 1 and 3 packed
	// tiles per expert; each read is 64*256*2 = 32 KiB.
	weightBytes := int64(cfg.Hidden) * int64(cfg.Out) * tile.ElemBytes
	if res.OffchipTrafficBytes < weightBytes || res.OffchipTrafficBytes%weightBytes != 0 {
		t.Fatalf("traffic %d not a multiple of weight size %d", res.OffchipTrafficBytes, weightBytes)
	}
	// Padded rows (pack 4 over uneven splits) show up in the counters and
	// inflate FLOPs versus the ideal.
	ideal := 2 * int64(cfg.Rows) * int64(cfg.Hidden) * int64(cfg.Out)
	if res.TotalFLOPs <= ideal {
		t.Fatalf("flops %d should exceed ideal %d due to padding", res.TotalFLOPs, ideal)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestSimpleMoEAllExpertsOneSided(t *testing.T) {
	// All rows to expert 1: expert 0 is idle but the graph still drains.
	cfg := DefaultSimpleMoEConfig()
	for i := range cfg.Routing {
		cfg.Routing[i] = 1
	}
	m, err := BuildSimpleMoE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.OutputRows(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.Rows {
		t.Fatalf("%d rows", len(rows))
	}
	ref := m.Reference()
	for i, r := range rows {
		if !tile.Equal(r, ref.Slice(i, i+1, 0, cfg.Out), 1e-3) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestSimpleMoERejectsBadConfig(t *testing.T) {
	cfg := DefaultSimpleMoEConfig()
	cfg.Routing = cfg.Routing[:3]
	if _, err := BuildSimpleMoE(cfg); err == nil {
		t.Fatal("expected routing length error")
	}
	cfg = DefaultSimpleMoEConfig()
	cfg.WeightCols = 7
	if _, err := BuildSimpleMoE(cfg); err == nil {
		t.Fatal("expected divisibility error")
	}
}

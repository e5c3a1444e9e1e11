package workloads

import (
	"errors"
	"sync"
	"testing"

	"step/internal/graph"
	"step/internal/tile"
	"step/internal/trace"
)

func TestSwiGLUFunctionalCorrectness(t *testing.T) {
	cfg := SwiGLUConfig{
		Batch: 8, Hidden: 16, Inter: 32,
		BatchTile: 4, InterTile: 8,
		Functional: true, Seed: 3,
	}
	sw, err := BuildSwiGLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent runs each read back their own stored output.
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := sw.Program.Run(graph.WithSimWorkers(i % 2 * 2))
			if err != nil {
				errs[i] = err
				return
			}
			got, err := sw.Output(sess)
			if err == nil && !tile.Equal(got, sw.Reference(), 1e-2) {
				err = errors.New("SwiGLU output mismatch")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestSwiGLUTrafficExact(t *testing.T) {
	cfg := DefaultSwiGLUConfig()
	sw, err := BuildSwiGLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sw.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Result
	if res.OffchipTrafficBytes != SwiGLUTrafficBytes(cfg) {
		t.Fatalf("traffic %d, want %d", res.OffchipTrafficBytes, SwiGLUTrafficBytes(cfg))
	}
	// The symbolic frontend's traffic equation matches the measurement.
	sym, err := sw.Program.OffchipTrafficBytesExpr().Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sym != res.OffchipTrafficBytes {
		t.Fatalf("symbolic %d != measured %d", sym, res.OffchipTrafficBytes)
	}
}

func TestSwiGLUSmallerTilesMoreTraffic(t *testing.T) {
	// The Fig. 8 memory-traffic trend: smaller batch tiles reload weights
	// more often.
	base := DefaultSwiGLUConfig()
	var last int64 = -1
	for _, bt := range []int{64, 32, 16} {
		cfg := base
		cfg.BatchTile = bt
		sw, err := BuildSwiGLU(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sw.Program.Run()
		if err != nil {
			t.Fatal(err)
		}
		res := sess.Result
		if last >= 0 && res.OffchipTrafficBytes <= last {
			t.Fatalf("tile %d: traffic %d should exceed %d", bt, res.OffchipTrafficBytes, last)
		}
		last = res.OffchipTrafficBytes
	}
}

func TestSwiGLURejectsBadTiles(t *testing.T) {
	cfg := DefaultSwiGLUConfig()
	cfg.BatchTile = 7
	if _, err := BuildSwiGLU(cfg); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestRunDecoderVariants(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	m.Layers = 4
	kv := trace.SampleKVLengths(16, 512, trace.VarMed, 3)
	run := func(cfg DecoderConfig) DecoderResult {
		t.Helper()
		cfg.Model = m
		cfg.Batch = 16
		cfg.KVLens = kv
		cfg.SampleLayers = 1
		cfg.Skew = trace.SkewHeavy
		cfg.Seed = 5
		res, err := RunDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(DecoderConfig{MoETile: 16, AttnStrategy: StaticInterleaved})
	dynamic := run(DecoderConfig{MoEDynamic: true, MoERegions: 16, AttnStrategy: DynamicParallel})
	if static.CyclesTotal == 0 || dynamic.CyclesTotal == 0 {
		t.Fatal("empty results")
	}
	if dynamic.AllocatedComputeBW >= static.AllocatedComputeBW {
		t.Fatalf("dynamic alloc %d should be below static %d (time-multiplexing)",
			dynamic.AllocatedComputeBW, static.AllocatedComputeBW)
	}
	if len(static.CyclesPerLayer) != 1 {
		t.Fatalf("per-layer cycles %v", static.CyclesPerLayer)
	}
}

func TestRunDecoderRejectsBadKV(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	_, err := RunDecoder(DecoderConfig{Model: m, Batch: 8, KVLens: []int{1}})
	if err == nil {
		t.Fatal("expected KV length mismatch error")
	}
}

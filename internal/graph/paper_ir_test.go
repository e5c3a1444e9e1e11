package graph_test

import (
	"bytes"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/hdlsim"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/tile"
	"step/internal/trace"
	"step/internal/workloads"
)

// paperWorkload builds one paper workload at a tiny configuration.
// golden pins its canonical IR as testdata/ir/<name>.json.
type paperWorkload struct {
	name   string
	golden bool
	build  func(t *testing.T) *graph.Program
}

func attentionWorkload(name string, s workloads.ParallelStrategy, golden bool) paperWorkload {
	return paperWorkload{name, golden, func(t *testing.T) *graph.Program {
		a, err := workloads.BuildAttention(workloads.AttentionConfig{
			Model:    workloads.Qwen3Config().Scaled(8),
			KVLens:   []int{100, 30, 200, 64, 10, 90},
			Strategy: s, Regions: 2, KVChunk: 64, IncludeQKV: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a.Program
	}}
}

func moeWorkload(name string, cfg workloads.MoELayerConfig, golden bool) paperWorkload {
	return paperWorkload{name, golden, func(t *testing.T) *graph.Program {
		cfg.Model = workloads.ModelConfig{
			Name: "tiny", Hidden: 8, Inter: 8, NumExperts: 4, TopK: 2,
			QHeads: 2, KVHeads: 1, HeadDim: 4, Layers: 2, WeightStrip: 4,
		}
		routing, err := trace.SampleExpertRouting(cfg.Batch, 4, 2, trace.SkewModerate, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Routing, cfg.Seed = routing, 5
		l, err := workloads.BuildMoELayer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l.Program
	}}
}

var paperWorkloads = []paperWorkload{
	attentionWorkload("paper-attention-static-coarse", workloads.StaticCoarse, false),
	attentionWorkload("paper-attention-static-interleaved", workloads.StaticInterleaved, false),
	attentionWorkload("paper-attention-dynamic", workloads.DynamicParallel, true),
	// Functional weights would take the golden over 64 KiB.
	moeWorkload("paper-moe-static", workloads.MoELayerConfig{Batch: 13, TileSize: 4}, true),
	moeWorkload("paper-moe-static-functional", workloads.MoELayerConfig{Batch: 13, TileSize: 4, Functional: true}, false),
	moeWorkload("paper-moe-dynamic", workloads.MoELayerConfig{Batch: 13, Dynamic: true, Functional: true}, false),
	moeWorkload("paper-moe-static-multiplexed", workloads.MoELayerConfig{Batch: 13, TileSize: 4, Regions: 2, Functional: true}, false),
	moeWorkload("paper-moe-dynamic-multiplexed-capped", workloads.MoELayerConfig{Batch: 13, Dynamic: true, DynamicCap: 3, Regions: 2, Functional: true}, false),
	{"paper-simplemoe", true, func(t *testing.T) *graph.Program {
		m, err := workloads.BuildSimpleMoE(workloads.SimpleMoEConfig{
			Rows: 6, Hidden: 4, Out: 8, PackRows: 2, WeightCols: 4, NumExperts: 2,
			Routing: []int{0, 1, 1, 0, 1, 1}, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Program
	}},
	{"paper-swiglu", true, func(t *testing.T) *graph.Program {
		sw, err := workloads.BuildSwiGLU(workloads.SwiGLUConfig{
			Batch: 4, Hidden: 8, Inter: 16, BatchTile: 2, InterTile: 8, Functional: true, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw.Program
	}},
	{"paper-matmul-atb", false, func(t *testing.T) *graph.Program {
		const k, m, n = hdlsim.Phys, 2 * hdlsim.Phys, 4 * hdlsim.Phys
		g := graph.New()
		var aE, bE []element.Element
		for i := 0; i < 2; i++ {
			aE = append(aE, element.DataOf(element.TileVal{T: tile.Random(k, m, uint64(i)+1)}))
			bE = append(bE, element.DataOf(element.TileVal{T: tile.Random(k, n, uint64(i)+100)}))
		}
		aS := ops.Source(g, "a", shape.OfInts(2), graph.StaticTile(k, m), append(aE, element.DoneElem))
		bS := ops.Source(g, "b", shape.OfInts(2), graph.StaticTile(k, n), append(bE, element.DoneElem))
		ops.Capture(g, "cap", hdlsim.TransformedMatmulATB(g, aS, bS, hdlsim.Phys))
		p, err := g.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}},
}

// TestPaperWorkloadIR round-trips every paper workload through its IR:
// the decoded program re-encodes to the same canonical bytes, derives
// the same §4.2 equations, and simulates to an equal Result with
// identical captures on the sequential and the parallel engine. The
// golden workloads' canonical IR is pinned next to the operator-family
// goldens, which also seeds FuzzProgramIR with them.
func TestPaperWorkloadIR(t *testing.T) {
	for _, w := range paperWorkloads {
		t.Run(w.name, func(t *testing.T) {
			prog := w.build(t)
			ir, err := prog.IR()
			if err != nil {
				t.Fatalf("IR: %v", err)
			}
			canonical, err := ir.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if w.golden {
				if b := checkIRGolden(t, w.name, canonical); len(b) > 1<<16 {
					t.Fatalf("golden is %d bytes; FuzzProgramIR skips seeds over 64 KiB", len(b))
				}
			}
			irBack, err := graph.ParseProgramIR(canonical)
			if err != nil {
				t.Fatal(err)
			}
			back, err := graph.CompileIR(irBack)
			if err != nil {
				t.Fatalf("CompileIR: %v", err)
			}
			again, err := back.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonical, again) {
				t.Fatalf("re-encoded IR differs:\n go: %s\n ir: %s", canonical, again)
			}
			if a, b := prog.OnchipBytesExpr().String(), back.OnchipBytesExpr().String(); a != b {
				t.Fatalf("on-chip equation differs:\n go: %s\n ir: %s", a, b)
			}
			if a, b := prog.OffchipTrafficBytesExpr().String(), back.OffchipTrafficBytesExpr().String(); a != b {
				t.Fatalf("off-chip equation differs:\n go: %s\n ir: %s", a, b)
			}
			for _, sw := range []int{1, 2} {
				sGo, err := prog.Run(graph.WithSimWorkers(sw))
				if err != nil {
					t.Fatalf("run go (sw=%d): %v", sw, err)
				}
				sIR, err := back.Run(graph.WithSimWorkers(sw))
				if err != nil {
					t.Fatalf("run ir (sw=%d): %v", sw, err)
				}
				if !sGo.Result.Equal(sIR.Result) {
					t.Fatalf("sw=%d: results differ:\n go: %+v\n ir: %+v", sw, sGo.Result, sIR.Result)
				}
				if a, b := sGo.CaptureNames(), sIR.CaptureNames(); len(a) != len(b) {
					t.Fatalf("sw=%d: captures %v vs %v", sw, a, b)
				}
				for _, name := range sGo.CaptureNames() {
					a, _ := sGo.Captured(name)
					b, ok := sIR.Captured(name)
					if !ok || element.FormatStream(a) != element.FormatStream(b) {
						t.Fatalf("sw=%d: capture %q differs", sw, name)
					}
				}
			}
		})
	}
}

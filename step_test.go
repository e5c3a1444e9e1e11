package step_test

import (
	"strings"
	"testing"

	"step"
)

// TestQuickstartAPI exercises the package's public surface the way the
// doc comment shows.
func TestQuickstartAPI(t *testing.T) {
	g := step.NewGraph()
	in := step.CountSource(g, "n", 8)
	dbl := step.Map(g, "double", in, step.MapFn{
		Name: "double",
		Apply: func(v step.Value) (step.Value, int64, error) {
			return step.Scalar{V: v.(step.Scalar).V * 2}, 1, nil
		},
	}, step.ComputeOpts{ComputeBW: 1})
	step.Capture(g, "out", dbl)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prog.Run(step.WithSeed(7), step.WithSimWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	out, _ := sess.Captured("out")
	got := step.FormatStream(out)
	if got != "0,2,4,6,8,10,12,14,D" {
		t.Fatalf("captured %s", got)
	}
}

// TestListingOneShapeInspection mirrors Listing 1's shape-introspection
// workflow: the frontend exposes and verifies stream shapes.
func TestListingOneShapeInspection(t *testing.T) {
	moe, err := step.BuildSimpleMoE(step.DefaultSimpleMoEConfig())
	if err != nil {
		t.Fatal(err)
	}
	dot := moe.Program.Dot("moe")
	if !strings.Contains(dot, "Partition") && !strings.Contains(dot, "route") {
		t.Fatalf("dot output missing nodes: %s", dot[:120])
	}
	// Every edge label carries a shape.
	if !strings.Contains(dot, "[") {
		t.Fatal("dot edges missing shapes")
	}
}

// TestPublicWorkloads runs each evaluation workload through the facade.
func TestPublicWorkloads(t *testing.T) {
	model := step.Qwen3Config().Scaled(8)
	routing, err := step.SampleExpertRouting(16, model.NumExperts, model.TopK, step.SkewModerate, 1)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := step.BuildMoELayer(step.MoELayerConfig{
		Model: model, Batch: 16, Dynamic: true, Routing: routing, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layer.Program.Run(); err != nil {
		t.Fatal(err)
	}

	kv := step.SampleKVLengths(16, 512, step.VarMed, 1)
	attn, err := step.BuildAttention(step.AttentionConfig{
		Model: model, KVLens: kv, Strategy: step.DynamicParallel, Regions: 4, KVChunk: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := attn.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := attn.CompletedRequests(sess); n != 16 {
		t.Fatalf("completed %d", n)
	}

	sw, err := step.BuildSwiGLU(step.SwiGLUConfig{
		Batch: 16, Hidden: 32, Inter: 64, BatchTile: 8, InterTile: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Program.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSymbolicShapes exercises the exported shape/expr constructors.
func TestSymbolicShapes(t *testing.T) {
	sh := step.NewShape(step.StaticDim(2), step.DynamicDim(step.Sym("D")), step.RaggedDim("R"))
	if sh.Rank() != 3 {
		t.Fatalf("rank %d", sh.Rank())
	}
	card := sh.Cardinality()
	v, err := card.Eval(step.Env{"D": 3, "R": 4})
	if err != nil || v != 24 {
		t.Fatalf("cardinality = %d, %v", v, err)
	}
}

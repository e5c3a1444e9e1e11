package scenario

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"step/internal/harness"
)

func quickSuite() harness.Suite { return harness.Suite{Seed: 7, Quick: true} }

func TestBuiltinSpecsValidate(t *testing.T) {
	ids := map[string]bool{}
	for _, sp := range Builtin() {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.ID, err)
		}
		if ids[sp.ID] {
			t.Errorf("duplicate builtin id %s", sp.ID)
		}
		ids[sp.ID] = true
		if got, ok := LookupBuiltin(sp.ID); !ok || got.ID != sp.ID {
			t.Errorf("LookupBuiltin(%s) failed", sp.ID)
		}
	}
	if _, ok := LookupBuiltin("nope"); ok {
		t.Error("lookup of unknown spec succeeded")
	}
}

func TestParseSpecShorthand(t *testing.T) {
	sp, err := Parse([]byte(`{
		"id": "mini", "kind": "attention",
		"models": ["qwen", {"base": "mixtral"}],
		"scale": 8, "batch": 8, "regions": 2,
		"strategies": ["dynamic"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	models, err := sp.resolveModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "Qwen3-30B-A3B/8" || models[1].Name != "Mixtral-8x7B/8" {
		t.Fatalf("models: %+v", models)
	}
}

func TestParseSpecInlineModel(t *testing.T) {
	sp, err := Parse([]byte(`{
		"id": "inline", "kind": "attention", "batch": 8, "regions": 2,
		"models": [{
			"Name": "custom", "Hidden": 64, "Inter": 64, "NumExperts": 4,
			"TopK": 2, "QHeads": 4, "KVHeads": 2, "HeadDim": 8, "Layers": 2,
			"WeightStrip": 32
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	models, err := sp.resolveModels()
	if err != nil {
		t.Fatal(err)
	}
	if models[0].Name != "custom" || models[0].Hidden != 64 {
		t.Fatalf("inline model: %+v", models[0])
	}
}

// TestParseSpecDenseInlineModel: attention-only sweeps validate just
// the dimensions attention reads, so a dense inline model needs no MoE
// fields (NumExperts, TopK, Inter, WeightStrip, Layers).
func TestParseSpecDenseInlineModel(t *testing.T) {
	sp, err := Parse([]byte(`{
		"id": "dense", "kind": "attention", "batch": 8, "regions": 2,
		"models": [{"Name": "dense", "Hidden": 64, "QHeads": 4, "KVHeads": 2, "HeadDim": 8}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sp, quickSuite()); err != nil {
		t.Fatalf("dense attention sweep failed: %v", err)
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"id": "x", "kind": "attention", "models": ["qwen"], "batchez": [1]}`,
		"unknown kind":      `{"id": "x", "kind": "warp-drive", "models": ["qwen"]}`,
		"missing kind":      `{"id": "x", "models": ["qwen"]}`,
		"missing id":        `{"kind": "attention", "models": ["qwen"]}`,
		"no models":         `{"id": "x", "kind": "attention"}`,
		"unknown model":     `{"id": "x", "kind": "attention", "models": ["gpt5"]}`,
		"bad strategy":      `{"id": "x", "kind": "attention", "models": ["qwen"], "strategies": ["psychic"]}`,
		"bad schedule":      `{"id": "x", "kind": "decoder", "models": ["qwen"], "strategies": ["static:zero"]}`,
		"bad variance":      `{"id": "x", "kind": "attention", "models": ["qwen"], "kv_variance": "extreme"}`,
		"bad group":         `{"id": "x", "kind": "attention", "models": ["qwen"], "groups": [{"count": 0, "kv_len": 5}]}`,
		"compare needs two": `{"id": "x", "kind": "attention", "models": ["qwen"], "compare": true, "strategies": ["dynamic"]}`,
		"tiling no tiles":   `{"id": "x", "kind": "moe-tiling", "models": ["qwen"], "batch": 64}`,
		// The scenario-loader entry point of ModelConfig.Validate: a
		// scale factor beyond the smallest feature dimension floors
		// dimensions to zero and must be rejected at parse time.
		"overflow scale": `{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 1000000, "batch": 8}`,
		"bad kv_heads":   `{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8, "kv_heads": [64]}`,
		// Fields the kind never reads must fail loudly, not silently
		// sweep nothing.
		"tiles on attention":     `{"id": "x", "kind": "attention", "models": ["qwen"], "tiles": [8, 16]}`,
		"strategies on tiling":   `{"id": "x", "kind": "moe-tiling", "models": ["qwen"], "batch": 64, "tiles": [8], "strategies": ["dynamic"]}`,
		"kv_heads on decoder":    `{"id": "x", "kind": "decoder", "models": ["qwen"], "kv_heads": [1, 2]}`,
		"groups with kv_means":   `{"id": "x", "kind": "attention", "models": ["qwen"], "groups": [{"count": 8, "kv_len": 64}], "kv_means": [256, 1024]}`,
		"groups with batch":      `{"id": "x", "kind": "attention", "models": ["qwen"], "groups": [{"count": 8, "kv_len": 64}], "batch": 16}`,
		"negative fixed batch":   `{"id": "x", "kind": "attention", "models": ["qwen"], "batch": -5}`,
		"non-positive kv_means":  `{"id": "x", "kind": "attention", "models": ["qwen"], "kv_means": [1024, 0]}`,
		"negative fixed kv_mean": `{"id": "x", "kind": "attention", "models": ["qwen"], "kv_mean": -1}`,
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNegativeFieldsRejected: each non-negative fixed parameter fails
// validation with an error naming the field, on a kind that reads it.
func TestNegativeFieldsRejected(t *testing.T) {
	const (
		attn    = `"kind": "attention", "models": ["qwen"], "scale": 8`
		decoder = `"kind": "decoder", "models": ["qwen"], "scale": 8, "batch": 16`
		tiling  = `"kind": "moe-tiling", "models": ["qwen"], "scale": 8, "batch": 64, "tiles": [8]`
	)
	cases := []struct{ field, raw string }{
		{"scale", `{"id": "x", "kind": "decoder", "models": ["qwen"], "scale": -8}`},
		{"regions", `{"id": "x", ` + attn + `, "regions": -4}`},
		{"kv_chunk", `{"id": "x", ` + attn + `, "kv_chunk": -5}`},
		{"coarse_block", `{"id": "x", ` + attn + `, "coarse_block": -1}`},
		{"dynamic_cap", `{"id": "x", ` + tiling + `, "dynamic_cap": -128}`},
		{"sample_layers", `{"id": "x", ` + decoder + `, "sample_layers": -1}`},
		{"moe_regions", `{"id": "x", ` + decoder + `, "moe_regions": -2}`},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.raw))
		if err == nil || !strings.Contains(err.Error(), "negative "+c.field) {
			t.Errorf("%s: want an error naming the negative field, got %v", c.field, err)
		}
	}
}

func TestHeaderOverrideLengthChecked(t *testing.T) {
	sp := GQARatio()
	sp.Header = []string{"just-one"}
	if _, err := Run(sp, quickSuite()); err == nil || !strings.Contains(err.Error(), "header override") {
		t.Fatalf("mismatched header override accepted: %v", err)
	}
}

// TestGQARatioShape checks the beyond-the-paper GQA family: shrinking
// KVHeads at fixed QHeads must shrink both the KV-cache footprint and
// the decode cycles, monotonically along the axis.
func TestGQARatioShape(t *testing.T) {
	tb, err := Run(GQARatio(), quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	prevCycles, prevKV := uint64(0), int64(0)
	for _, r := range tb.Rows {
		cycles, err := strconv.ParseUint(r[3], 10, 64)
		if err != nil {
			t.Fatalf("cycles %q: %v", r[3], err)
		}
		kv, err := strconv.ParseInt(r[4], 10, 64)
		if err != nil {
			t.Fatalf("kv bytes %q: %v", r[4], err)
		}
		if cycles <= prevCycles || kv <= prevKV {
			t.Fatalf("more KV heads must cost more cycles and bytes: %v", tb.Rows)
		}
		prevCycles, prevKV = cycles, kv
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "KVHeads 1 vs 32") {
		t.Fatalf("missing GQA endpoint note: %v", tb.Notes)
	}
}

// TestLongContextShape checks that decode cycles and the KV-cache
// footprint grow monotonically with the KV-length axis.
func TestLongContextShape(t *testing.T) {
	tb, err := Run(LongContext(), quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tb.Rows))
	}
	prev := uint64(0)
	for _, r := range tb.Rows {
		cycles, err := strconv.ParseUint(r[1], 10, 64)
		if err != nil {
			t.Fatalf("cycles %q: %v", r[1], err)
		}
		if cycles <= prev {
			t.Fatalf("longer KV must cost more cycles: %v", tb.Rows)
		}
		prev = cycles
	}
}

// TestMixedServingShape checks the heterogeneous-batch family: static
// coarse assignment strands whole regions behind the long requests, so
// dynamic dispatch must win clearly.
func TestMixedServingShape(t *testing.T) {
	tb, err := Run(MixedServing(), quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(tb.Rows))
	}
	speedup, err := strconv.ParseFloat(tb.Rows[0][len(tb.Rows[0])-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1.5 {
		t.Fatalf("coarse/dynamic speedup %.2f should be large for a short/long mix", speedup)
	}
}

// TestDecoderKind runs an end-to-end decoder spec: two schedules at one
// batch through workloads.RunDecoder, one row per schedule plus a
// speedup note.
func TestDecoderKind(t *testing.T) {
	sp, err := Parse([]byte(`{
		"id": "decoder-mini", "kind": "decoder", "models": ["qwen"],
		"scale": 8, "batch": 16, "strategies": ["static:16", "dynamic"],
		"sample_layers": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Run(sp, quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if c, err := strconv.ParseUint(r[1], 10, 64); err != nil || c == 0 {
			t.Fatalf("bad cycles cell %q: %v", r[1], err)
		}
	}
	if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "speedup") {
		t.Fatalf("notes: %v", tb.Notes)
	}
}

// TestExampleSpecsRunWithDeterminismMatrix loads the committed example
// spec files and runs them: each declares workers_axis [1,8] x
// sim_workers_axis [1,8], so a successful run certifies byte-identical
// tables across the whole matrix (Run fails on any mismatch).
func TestExampleSpecsRunWithDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix runs each sweep four times")
	}
	for _, name := range []string{"gqa_ratio.json", "long_context.json", "mixed_serving.json"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sp, err := Load(filepath.Join("..", "..", "examples", "specs", name))
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.WorkersAxis) == 0 || len(sp.SimWorkersAxis) == 0 {
				t.Fatalf("%s must declare the determinism matrix axes", name)
			}
			tb, err := Run(sp, quickSuite())
			if err != nil {
				t.Fatal(err)
			}
			last := tb.Notes[len(tb.Notes)-1]
			if !strings.Contains(last, "byte-identical across") {
				t.Fatalf("missing matrix note: %v", tb.Notes)
			}
		})
	}
}

// TestWorkerMatrixDeterminism runs each beyond-the-paper family across
// Workers {1,8} x SimWorkers {1,8} and requires byte-identical rendered
// tables — the harness and the DES engine may only change where work
// executes, never what it produces.
func TestWorkerMatrixDeterminism(t *testing.T) {
	for _, sp := range []Spec{GQARatio(), LongContext(), MixedServing()} {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			t.Parallel()
			var baseStr, baseCSV string
			for _, w := range []int{1, 8} {
				for _, sw := range []int{1, 8} {
					tb, err := Run(sp, harness.Suite{Seed: 7, Quick: true, Workers: w, SimWorkers: sw})
					if err != nil {
						t.Fatalf("Workers=%d SimWorkers=%d: %v", w, sw, err)
					}
					if baseStr == "" {
						baseStr, baseCSV = tb.String(), tb.CSV()
						continue
					}
					if tb.String() != baseStr || tb.CSV() != baseCSV {
						t.Errorf("table differs at Workers=%d SimWorkers=%d:\n%s\n--- base ---\n%s", w, sw, tb.String(), baseStr)
					}
				}
			}
		})
	}
}

package scenario

// Builtin specs: the paper's pure-sweep figures expressed as data (one
// code path serves the artifact registry and user-defined sweeps) plus
// the beyond-the-paper scenario families.

// PaperScale shrinks model feature dimensions uniformly to keep
// discrete-event counts tractable (see ModelConfig.Scaled). Every
// registry artifact and canned spec simulates at this scale.
const PaperScale = 8

// Fig9 is the batch-64 dynamic-tiling Pareto sweep as a spec.
func Fig9() Spec {
	return Spec{
		ID:     "fig9",
		Title:  "Tiling strategies, per-expert batch dim (batch=64): latency vs on-chip memory",
		Kind:   KindMoETiling,
		Models: []ModelSpec{{Base: "mixtral"}, {Base: "qwen"}},
		Scale:  PaperScale,
		Batch:  64,
		Tiles:  []int{8, 16, 32, 64},
	}
}

// Fig10 is the batch-1024 variant.
func Fig10() Spec {
	return Spec{
		ID:         "fig10",
		Title:      "Tiling strategies (batch=1024): latency vs on-chip memory",
		Kind:       KindMoETiling,
		Models:     []ModelSpec{{Base: "mixtral"}, {Base: "qwen"}},
		Scale:      PaperScale,
		Batch:      1024,
		Tiles:      []int{16, 64, 256, 1024},
		QuickTiles: []int{16, 256},
	}
}

// Fig19 is the off-chip-traffic view of the batch-64 sweep.
func Fig19() Spec {
	sp := Fig9()
	sp.ID = "fig19"
	sp.Title = "Tiling strategies (batch=64): off-chip traffic vs on-chip memory"
	sp.UseTraffic = true
	return sp
}

// Fig20 is the off-chip-traffic view of the batch-1024 sweep.
func Fig20() Spec {
	sp := Fig10()
	sp.ID = "fig20"
	sp.Title = "Tiling strategies (batch=1024): off-chip traffic vs on-chip memory"
	sp.UseTraffic = true
	return sp
}

// Fig15 compares static coarse-grained parallelization with dynamic
// across batch sizes (coarse blocks of 16 requests per region).
func Fig15() Spec {
	return Spec{
		ID:           "fig15",
		Title:        "Static coarse vs dynamic parallelization across batch sizes",
		Kind:         KindAttention,
		Models:       []ModelSpec{{Base: "qwen"}},
		Scale:        PaperScale,
		Batches:      []int{16, 32, 48, 64},
		Strategies:   []string{"static-coarse", "dynamic"},
		CoarseBlock:  16,
		SeedPerBatch: true,
		Compare:      true,
		Notes:        []string{"largest win at batch=16 where coarse leaves regions idle (paper: 2.72x at 16, 1.43x at 64)"},
	}
}

// GQARatio sweeps the grouped-query-attention ratio: KVHeads from MQA
// (1) up to MHA (= QHeads) at fixed QHeads, trading KV-cache footprint
// against decode-attention cycles. The paper's registry fixes KVHeads
// per model; this family is only expressible as a scenario.
func GQARatio() Spec {
	return Spec{
		ID:         "gqa-ratio",
		Title:      "GQA ratio sweep: KV-cache footprint vs decode-attention cycles (batch=64)",
		Kind:       KindAttention,
		Models:     []ModelSpec{{Base: "qwen"}},
		Scale:      PaperScale,
		Batch:      64,
		KVHeads:    []int{1, 2, 4, 8, 16, 32},
		Strategies: []string{"dynamic"},
	}
}

// LongContext sweeps the mean KV length of a decode batch across two
// orders of magnitude, tracking cycles against the KV-cache growth
// (KVBytesPerToken x total resident tokens).
func LongContext() Spec {
	return Spec{
		ID:         "long-context",
		Title:      "Long-context decode: cycles vs KV-cache growth (batch=16)",
		Kind:       KindAttention,
		Models:     []ModelSpec{{Base: "qwen"}},
		Scale:      PaperScale,
		Batch:      16,
		KVMeans:    []float64{256, 1024, 4096, 16384},
		KVVariance: "med",
		Strategies: []string{"dynamic"},
	}
}

// MixedServing pushes a heterogeneous serving batch — many short
// requests mixed with a few very long ones — through one schedule per
// strategy: static assignment strands regions behind the long
// requests, dynamic dispatch backfills them.
func MixedServing() Spec {
	return Spec{
		ID:    "mixed-serving",
		Title: "Mixed serving: 48 short + 16 long requests under one schedule",
		Kind:  KindAttention,
		Models: []ModelSpec{
			{Base: "qwen"},
		},
		Scale:       PaperScale,
		Groups:      []RequestGroup{{Count: 48, KVLen: 256}, {Count: 16, KVLen: 8192}},
		Strategies:  []string{"static-coarse", "static-interleaved", "dynamic"},
		CoarseBlock: 16,
		Compare:     true,
	}
}

// Builtin returns every canned spec: the re-registered paper figures
// first, then the beyond-the-paper families.
func Builtin() []Spec {
	return []Spec{
		Fig9(), Fig10(), Fig15(), Fig19(), Fig20(),
		GQARatio(), LongContext(), MixedServing(),
	}
}

// LookupBuiltin finds a canned spec by ID.
func LookupBuiltin(id string) (Spec, bool) {
	for _, sp := range Builtin() {
		if sp.ID == id {
			return sp, true
		}
	}
	return Spec{}, false
}

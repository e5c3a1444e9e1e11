package workloads

import (
	"strings"
	"testing"
)

func TestModelConfigValidate(t *testing.T) {
	for _, m := range []ModelConfig{Qwen3Config(), MixtralConfig()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		// The experiment scale keeps all dimensions positive.
		if err := m.Scaled(8).Validate(); err != nil {
			t.Errorf("%s scaled 8: %v", m.Name, err)
		}
	}
	bad := Qwen3Config()
	bad.TopK = bad.NumExperts + 1
	if err := bad.Validate(); err == nil {
		t.Error("TopK > NumExperts accepted")
	}
	bad = Qwen3Config()
	bad.KVHeads = bad.QHeads * 2
	if err := bad.Validate(); err == nil {
		t.Error("KVHeads > QHeads accepted")
	}

	// Attention-scoped validation accepts dense models without MoE
	// fields but still guards the dimensions attention reads.
	dense := ModelConfig{Name: "dense", Hidden: 64, QHeads: 4, KVHeads: 2, HeadDim: 8}
	if err := dense.ValidateAttention(); err != nil {
		t.Errorf("dense model rejected by attention validation: %v", err)
	}
	if err := dense.Validate(); err == nil {
		t.Error("dense model accepted by full MoE validation")
	}
	dense.HeadDim = 0
	if err := dense.ValidateAttention(); err == nil {
		t.Error("zero HeadDim accepted by attention validation")
	}
}

// TestScaledOverflowFactorRejected is the regression for the silent
// zero-dimension bug: Scaled floors Hidden/Inter/HeadDim/WeightStrip
// with integer division, so a factor beyond the smallest dimension used
// to produce a model that simulated nothing (or panicked on a modulo).
// Validate must reject it, and every entry point must surface the error.
func TestScaledOverflowFactorRejected(t *testing.T) {
	m := Qwen3Config().Scaled(1 << 20)
	if m.Hidden != 0 || m.Inter != 0 {
		t.Fatalf("expected floored dims, got Hidden=%d Inter=%d", m.Hidden, m.Inter)
	}
	err := m.Validate()
	if err == nil {
		t.Fatal("zero-dimension model validated")
	}
	if !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// RunDecoder rejects it up front instead of dividing by zero.
	kv := make([]int, 4)
	for i := range kv {
		kv[i] = 64
	}
	if _, err := RunDecoder(DecoderConfig{Model: m, Batch: 4, KVLens: kv}); err == nil {
		t.Error("RunDecoder accepted a zero-dimension model")
	}

	// The MoE and attention builders reject it too (the MoE validator
	// used to panic on Inter % WeightStrip with WeightStrip == 0).
	if _, err := BuildMoELayer(MoELayerConfig{Model: m, Batch: 1, TileSize: 1}); err == nil {
		t.Error("BuildMoELayer accepted a zero-dimension model")
	}
	if _, err := BuildAttention(AttentionConfig{Model: m, KVLens: kv, Regions: 1}); err == nil {
		t.Error("BuildAttention accepted a zero-dimension model")
	}
}

package workloads

import (
	"fmt"

	"step/internal/des"
	"step/internal/graph"
	"step/internal/trace"
)

// DecoderScheduleKind names the Fig. 17 configurations.
type DecoderScheduleKind int

const (
	// StaticMemMatched uses the static MoE tile whose on-chip memory is
	// closest to the dynamic schedule's, with static-interleaved attention.
	StaticMemMatched DecoderScheduleKind = iota
	// StaticPerfMatched uses the static MoE tile whose cycles are closest
	// to the dynamic schedule's, with static-interleaved attention.
	StaticPerfMatched
	// DynamicSchedule uses dynamic tiling, dynamic parallelization, and
	// (when Regions < NumExperts) configuration time-multiplexing.
	DynamicSchedule
)

func (k DecoderScheduleKind) String() string {
	switch k {
	case StaticMemMatched:
		return "static-mem-matched"
	case StaticPerfMatched:
		return "static-perf-matched"
	default:
		return "dynamic"
	}
}

// DecoderConfig parameterizes the end-to-end decoder evaluation: each
// Transformer decoder layer comprises QKV generation + attention + MoE.
// Attention (with QKV fused in) parallelizes the batch dimension by
// AttnRegions; MoE uses expert parallelism with the given tiling.
type DecoderConfig struct {
	Model ModelConfig
	Batch int
	// KVLens holds per-request KV lengths (median-σ trace per Fig. 17).
	KVLens []int
	// MoE schedule.
	MoETile    int // static tile (ignored when MoEDynamic)
	MoEDynamic bool
	MoERegions int // < NumExperts enables time-multiplexing
	// Attention schedule.
	AttnStrategy ParallelStrategy
	AttnRegions  int
	// SampleLayers is how many layers to simulate (each with its own
	// routing trace); the per-layer average scales to Model.Layers.
	SampleLayers int
	Skew         trace.Skew
	Seed         uint64
}

// DecoderResult aggregates the end-to-end metrics of Fig. 17.
type DecoderResult struct {
	// CyclesTotal is the modeled full-model latency (average sampled layer
	// × layer count).
	CyclesTotal des.Time
	// CyclesPerLayer lists the sampled per-layer latencies.
	CyclesPerLayer []des.Time
	// OnchipBytes is the per-layer on-chip requirement (attention regions
	// + MoE §4.2 equation).
	OnchipBytes int64
	// AllocatedComputeBW sums the FLOPs/cycle allocated per layer.
	AllocatedComputeBW int64
	// TrafficBytes is the total off-chip traffic across sampled layers,
	// scaled to the full model.
	TrafficBytes int64
}

// RunDecoder simulates the end-to-end decoder under the given schedule,
// running every sampled layer's programs with opts.
func RunDecoder(cfg DecoderConfig, opts ...graph.RunOption) (DecoderResult, error) {
	return RunDecoderWith(cfg, func(p *graph.Program, _ ...graph.RunOption) (*graph.Session, error) {
		return p.Run(opts...)
	})
}

// RunDecoderWith is RunDecoder with each program run by run(program); a
// sweep passes its harness.Suite's Run, which counts the runs.
func RunDecoderWith(cfg DecoderConfig, run func(*graph.Program, ...graph.RunOption) (*graph.Session, error)) (DecoderResult, error) {
	if err := cfg.Model.Validate(); err != nil {
		return DecoderResult{}, err
	}
	if cfg.SampleLayers < 1 {
		cfg.SampleLayers = 2
	}
	if cfg.AttnRegions < 1 {
		cfg.AttnRegions = 4
	}
	if len(cfg.KVLens) != cfg.Batch {
		return DecoderResult{}, fmt.Errorf("workloads: %d KV lengths for batch %d", len(cfg.KVLens), cfg.Batch)
	}
	var out DecoderResult
	var sumCycles des.Time
	for layer := 0; layer < cfg.SampleLayers; layer++ {
		// Attention stage (QKV fused).
		attn, err := BuildAttention(AttentionConfig{
			Model:      cfg.Model,
			KVLens:     cfg.KVLens,
			Strategy:   cfg.AttnStrategy,
			Regions:    cfg.AttnRegions,
			KVChunk:    64,
			IncludeQKV: true,
		})
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d attention: %w", layer, err)
		}
		attnSess, err := run(attn.Program)
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d attention: %w", layer, err)
		}

		// MoE stage with a layer-specific routing trace.
		routing, err := trace.SampleExpertRouting(cfg.Batch, cfg.Model.NumExperts, cfg.Model.TopK,
			cfg.Skew, cfg.Seed+uint64(layer)*977)
		if err != nil {
			return out, err
		}
		moe, err := BuildMoELayer(MoELayerConfig{
			Model:    cfg.Model,
			Batch:    cfg.Batch,
			TileSize: cfg.MoETile,
			Dynamic:  cfg.MoEDynamic,
			Regions:  cfg.MoERegions,
			Routing:  routing,
			Seed:     cfg.Seed + uint64(layer),
		})
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d moe: %w", layer, err)
		}
		moeSess, err := run(moe.Program)
		if err != nil {
			return out, fmt.Errorf("workloads: layer %d moe: %w", layer, err)
		}

		attnRes, moeRes := attnSess.Result, moeSess.Result
		layerCycles := attnRes.Cycles + moeRes.Cycles
		out.CyclesPerLayer = append(out.CyclesPerLayer, layerCycles)
		sumCycles += layerCycles
		out.TrafficBytes += attnRes.OffchipTrafficBytes + moeRes.OffchipTrafficBytes
		if layer == 0 {
			moeOnchip, err := moe.OnchipBytes()
			if err != nil {
				return out, err
			}
			attnOnchip, err := attn.Program.OnchipBytesExpr().Eval(nil)
			if err != nil {
				// Attention graphs have only static dims in their
				// equations; a symbol here is a bug.
				return out, fmt.Errorf("workloads: attention onchip: %w", err)
			}
			out.OnchipBytes = moeOnchip + attnOnchip
			out.AllocatedComputeBW = moe.Program.AllocatedComputeBW() + attn.Program.AllocatedComputeBW()
		}
	}
	layers := des.Time(cfg.Model.Layers)
	out.CyclesTotal = sumCycles / des.Time(cfg.SampleLayers) * layers
	out.TrafficBytes = out.TrafficBytes / int64(cfg.SampleLayers) * int64(cfg.Model.Layers)
	return out, nil
}

package experiments

import (
	"math"
	"strconv"

	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/trace"
	"step/internal/workloads"
)

// Figure17 evaluates end-to-end decoder models under three schedules:
// static memory-matched, static performance-matched, and dynamic (dynamic
// tiling + dynamic parallelization + time-multiplexing where the expert
// pool allows). The matched static tile sizes are derived from the batch-64
// tiling sweep, mirroring the paper's methodology ("the same closest points
// along each axis from Fig. 9").
func Figure17(s Suite) (*Table, error) {
	s = s.EnsurePool()
	t := &Table{
		ID:     "fig17",
		Title:  "End-to-end decoder: speedup, on-chip memory, allocated compute",
		Header: []string{"Model", "Schedule", "CyclesTotal", "Speedup", "OnchipBytes", "AllocComputeFLOPs/cyc"},
	}
	const batch = 64
	sampleLayers := 2
	if s.Quick {
		sampleLayers = 1
	}
	bases := []workloads.ModelConfig{
		workloads.MixtralConfig(),
		workloads.Qwen3Config(),
	}
	type modelRun struct {
		model                   workloads.ModelConfig
		memTile, perfTile       int
		memRes, perfRes, dynRes workloads.DecoderResult
	}
	// Fan the models out on the pool; inside each, the tiling sweep and
	// the three decoder schedules fan out in turn.
	runs, err := harness.ParMap(s, len(bases), func(mi int) (modelRun, error) {
		model := bases[mi].Scaled(scenario.PaperScale)
		// Derive matched tile sizes from the tiling sweep.
		static, dyn, err := scenario.TilingSweep(s, model, batch, []int{8, 16, 32, 64})
		if err != nil {
			return modelRun{}, err
		}
		memTile, perfTile := matchTiles(static, dyn)

		kv := trace.SampleKVLengths(batch, 2048, trace.VarMed, s.Seed)
		// Time-multiplexing applies when only a small fraction of a large
		// expert pool is active (the paper skips it for Mixtral at
		// batch 64, where all 8 experts are active).
		dynRegions := 0
		if model.NumExperts >= 64 {
			dynRegions = 16
		}
		schedules := []workloads.DecoderConfig{
			{MoETile: memTile, AttnStrategy: workloads.StaticInterleaved},
			{MoETile: perfTile, AttnStrategy: workloads.StaticInterleaved},
			{MoEDynamic: true, MoERegions: dynRegions, AttnStrategy: workloads.DynamicParallel},
		}
		results, err := harness.ParMap(s, len(schedules), func(i int) (workloads.DecoderResult, error) {
			cfg := schedules[i]
			cfg.Model = model
			cfg.Batch = batch
			cfg.KVLens = kv
			cfg.SampleLayers = sampleLayers
			cfg.Skew = trace.SkewHeavy
			cfg.Seed = s.Seed
			return workloads.RunDecoderWith(cfg, s.Run)
		})
		if err != nil {
			return modelRun{}, err
		}
		return modelRun{
			model:   model,
			memTile: memTile, perfTile: perfTile,
			memRes: results[0], perfRes: results[1], dynRes: results[2],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		add := func(name string, r workloads.DecoderResult) {
			t.AddRow(run.model.Name, name, uint64(r.CyclesTotal),
				float64(run.memRes.CyclesTotal)/float64(r.CyclesTotal),
				r.OnchipBytes, r.AllocatedComputeBW)
		}
		add("static-mem-matched(tile="+strconv.Itoa(run.memTile)+")", run.memRes)
		add("static-perf-matched(tile="+strconv.Itoa(run.perfTile)+")", run.perfRes)
		add("dynamic", run.dynRes)
		t.Notef("%s: dynamic speedup vs mem-matched %.2fx (paper: 1.27x Mixtral / 1.15x Qwen); onchip vs perf-matched %.0f%% smaller",
			run.model.Name,
			float64(run.memRes.CyclesTotal)/float64(run.dynRes.CyclesTotal),
			100*(1-float64(run.dynRes.OnchipBytes)/float64(run.perfRes.OnchipBytes)))
	}
	return t, nil
}

// matchTiles picks the static tiles closest to the dynamic point on the
// memory and cycles axes respectively.
func matchTiles(static []scenario.TilingPoint, dyn scenario.TilingPoint) (memTile, perfTile int) {
	bestMem, bestPerf := math.Inf(1), math.Inf(1)
	memTile, perfTile = static[0].Tile, static[0].Tile
	for _, p := range static {
		if d := math.Abs(math.Log(float64(p.Onchip) / float64(dyn.Onchip))); d < bestMem {
			bestMem, memTile = d, p.Tile
		}
		if d := math.Abs(math.Log(float64(p.Cycles) / float64(dyn.Cycles))); d < bestPerf {
			bestPerf, perfTile = d, p.Tile
		}
	}
	return memTile, perfTile
}

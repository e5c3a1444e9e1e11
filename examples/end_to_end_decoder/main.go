// End-to-end decoder layers (§5.5, Fig. 17): Qwen3-30B-A3B decoder layers
// (QKV + attention + MoE) under a static schedule versus the combined
// dynamic optimizations — dynamic tiling, dynamic parallelization, and
// configuration time-multiplexing of the 128-expert pool across 16
// regions.
//
// Run with: go run ./examples/end_to_end_decoder
package main

import (
	"fmt"
	"log"

	"step"
)

func main() {
	model := step.Qwen3Config().Scaled(8)
	const batch = 64
	kv := step.SampleKVLengths(batch, 2048, step.VarMed, 11)

	run := func(label string, cfg step.DecoderConfig) step.DecoderResult {
		cfg.Model = model
		cfg.Batch = batch
		cfg.KVLens = kv
		cfg.SampleLayers = 2
		cfg.Skew = step.SkewHeavy
		cfg.Seed = 11
		res, err := step.RunDecoder(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %12d %14d %16d\n",
			label, res.CyclesTotal, res.OnchipBytes, res.AllocatedComputeBW)
		return res
	}

	fmt.Printf("%s, %d layers, batch %d\n\n", model.Name, model.Layers, batch)
	fmt.Printf("%-28s %12s %14s %16s\n", "schedule", "cycles", "on-chip bytes", "alloc FLOPs/cyc")
	static := run("static (tile=16, interleaved)", step.DecoderConfig{
		MoETile: 16, AttnStrategy: step.StaticInterleaved,
	})
	dynamic := run("dynamic (+timeshare x16)", step.DecoderConfig{
		MoEDynamic: true, MoERegions: 16, AttnStrategy: step.DynamicParallel,
	})

	fmt.Printf("\nspeedup:          %.2fx\n", float64(static.CyclesTotal)/float64(dynamic.CyclesTotal))
	fmt.Printf("on-chip memory:   %.0f%% less\n", 100*(1-float64(dynamic.OnchipBytes)/float64(static.OnchipBytes)))
	fmt.Printf("allocated compute: %.0f%% less\n", 100*(1-float64(dynamic.AllocatedComputeBW)/float64(static.AllocatedComputeBW)))
}

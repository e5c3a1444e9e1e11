// Dynamic tiling on a Mixture-of-Experts layer (§5.2, Fig. 9): static
// tiling pads each expert's tokens into fixed-size tiles, trading on-chip
// memory against weight-reload traffic; dynamic tiling packs exactly the
// tokens each expert received into one dynamically-sized tile, breaking
// the static Pareto frontier.
//
// Run with: go run ./examples/moe_dynamic_tiling
package main

import (
	"fmt"
	"log"

	"step"
)

func main() {
	model := step.Qwen3Config().Scaled(8)
	const batch = 64
	routing, err := step.SampleExpertRouting(batch, model.NumExperts, model.TopK, step.SkewHeavy, 1)
	if err != nil {
		log.Fatal(err)
	}
	counts := routing.Counts()
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	fmt.Printf("model %s: %d experts, top-%d, batch %d; busiest expert gets %d tokens\n\n",
		model.Name, model.NumExperts, model.TopK, batch, maxC)

	fmt.Printf("%-10s %10s %14s %14s\n", "schedule", "cycles", "on-chip bytes", "traffic bytes")
	run := func(label string, tileSize int, dynamic bool) {
		layer, err := step.BuildMoELayer(step.MoELayerConfig{
			Model: model, Batch: batch,
			TileSize: tileSize, Dynamic: dynamic,
			Routing: routing, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		sess, err := layer.Program.Run()
		if err != nil {
			log.Fatal(err)
		}
		res := sess.Result
		onchip, err := layer.OnchipBytes()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10d %14d %14d\n", label, res.Cycles, onchip, res.OffchipTrafficBytes)
	}
	for _, ts := range []int{8, 16, 32, 64} {
		run(fmt.Sprintf("tile=%d", ts), ts, false)
	}
	run("dynamic", 0, true)
	fmt.Println("\nDynamic tiling avoids both the small-tile weight reloads and the")
	fmt.Println("large-tile padding: it should match or beat every static point on")
	fmt.Println("at least one axis without losing the other (Pareto improvement).")
}

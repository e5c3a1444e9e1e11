// Quickstart: the paper's simplified two-expert MoE walkthrough (§3.3,
// Figs. 6 and 7, Listing 1). Rows of a [10, 64] input are routed
// dynamically to one of two experts (a single matmul each), packed into
// [4, 64] tiles, multiplied against column-tiled weights loaded from
// off-chip memory, unpacked, and reassembled in input order.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"step"
)

func main() {
	cfg := step.DefaultSimpleMoEConfig()
	moe, err := step.BuildSimpleMoE(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the program: every edge carries a symbolic stream shape.
	fmt.Println("Routing (row -> expert):", cfg.Routing)

	// The builder compiled the graph into an immutable Program; running
	// it instantiates fresh engine state, so repeated runs are legal.
	sess, err := moe.Program.Run(step.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	res := sess.Result

	rows, err := moe.OutputRows(sess)
	if err != nil {
		log.Fatal(err)
	}
	ref := moe.Reference()
	maxErr := float32(0)
	for i, r := range rows {
		for c := 0; c < cfg.Out; c++ {
			d := r.At(0, c) - ref.At(i, c)
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}

	fmt.Printf("rows produced:        %d\n", len(rows))
	fmt.Printf("max abs error:        %g (vs direct tensor computation)\n", maxErr)
	fmt.Printf("simulated cycles:     %d\n", res.Cycles)
	fmt.Printf("off-chip traffic:     %d bytes\n", res.OffchipTrafficBytes)
	fmt.Printf("total FLOPs:          %d (includes padding overhead)\n", res.TotalFLOPs)
	fmt.Printf("operational intensity: %.2f FLOPs/byte\n", res.OperationalIntensity())
}

// Dynamic parallelization of decode attention (§5.4, Figs. 14–16): decode
// requests with varying KV-cache lengths are dispatched across four
// spatially parallel regions. Static coarse blocks and round-robin
// interleaving suffer load imbalance; the dynamic schedule routes each
// request to whichever region frees up first, via a selector feedback loop
// built from Partition, EagerMerge, and a relay (Fig. 16).
//
// Run with: go run ./examples/attention_dynamic_parallel
package main

import (
	"fmt"
	"log"

	"step"
)

func main() {
	model := step.Qwen3Config().Scaled(8)
	const batch = 64

	fmt.Printf("decode attention, batch %d, 4 parallel regions\n\n", batch)
	fmt.Printf("%-12s %18s %18s %14s\n", "KV variance", "interleaved cyc", "coarse cyc", "dynamic cyc")
	for _, class := range []step.VarianceClass{step.VarLow, step.VarMed, step.VarHigh} {
		kv := step.SampleKVLengths(batch, 2048, class, 7)
		cycles := func(strategy step.ParallelStrategy, block int) uint64 {
			a, err := step.BuildAttention(step.AttentionConfig{
				Model:       model,
				KVLens:      kv,
				Strategy:    strategy,
				Regions:     4,
				KVChunk:     64,
				CoarseBlock: block,
			})
			if err != nil {
				log.Fatal(err)
			}
			sess, err := a.Program.Run()
			if err != nil {
				log.Fatal(err)
			}
			if n := a.CompletedRequests(sess); n != batch {
				log.Fatalf("%v completed %d of %d", strategy, n, batch)
			}
			return uint64(sess.Result.Cycles)
		}
		ic := cycles(step.StaticInterleaved, 0)
		cc := cycles(step.StaticCoarse, 16)
		dc := cycles(step.DynamicParallel, 0)
		fmt.Printf("%-12s %18d %18d %14d   (dyn speedup %.2fx / %.2fx)\n",
			class, ic, cc, dc, float64(ic)/float64(dc), float64(cc)/float64(dc))
	}
	fmt.Println("\nThe dynamic schedule's advantage grows with KV-length variance,")
	fmt.Println("because long requests block statically assigned regions (Fig. 14).")
}

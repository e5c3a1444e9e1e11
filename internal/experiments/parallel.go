package experiments

import (
	"math"

	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/trace"
	"step/internal/workloads"
)

// runAttention measures one attention configuration. coarseBlock > 0
// fixes the per-region block size for the coarse strategy.
func runAttention(s Suite, model workloads.ModelConfig, kv []int, strategy workloads.ParallelStrategy, micro []int, coarseBlock int) (uint64, error) {
	a, err := workloads.BuildAttention(workloads.AttentionConfig{
		Model:        model,
		KVLens:       kv,
		Strategy:     strategy,
		Regions:      4,
		KVChunk:      64,
		Microbatches: micro,
		CoarseBlock:  coarseBlock,
	})
	if err != nil {
		return 0, err
	}
	sess, err := s.Run(a.Program)
	if err != nil {
		return 0, err
	}
	return uint64(sess.Result.Cycles), nil
}

// Figure14 compares dynamic parallelization against static interleaved
// across KV-length variance classes at batch 64.
func Figure14(s Suite) (*Table, error) {
	s = s.EnsurePool()
	t := &Table{
		ID:     "fig14",
		Title:  "Dynamic parallelization vs static interleaved (batch=64)",
		Header: []string{"KVVariance", "InterleavedCycles", "DynamicCycles", "Speedup"},
	}
	model := workloads.Qwen3Config().Scaled(scenario.PaperScale)
	classes := []trace.VarianceClass{trace.VarLow, trace.VarMed, trace.VarHigh}
	// Each variance class needs two independent simulations: fan both
	// strategies of every class out on the pool.
	pairs, err := harness.ParMap(s, 2*len(classes), func(i int) (uint64, error) {
		kv := trace.SampleKVLengths(64, 2048, classes[i/2], s.Seed)
		strategy := workloads.StaticInterleaved
		if i%2 == 1 {
			strategy = workloads.DynamicParallel
		}
		return runAttention(s, model, kv, strategy, nil, 0)
	})
	if err != nil {
		return nil, err
	}
	for i, class := range classes {
		ic, dc := pairs[2*i], pairs[2*i+1]
		t.AddRow(class.String(), ic, dc, float64(ic)/float64(dc))
	}
	t.Notef("speedups should grow with variance (paper: 1.14-1.26x low, 1.47-1.57x high)")
	return t, nil
}

// Figure21 is the parallelization ablation: all three strategies across
// batch compositions and variance classes, normalized to dynamic, geomean
// over three sampled batches.
func Figure21(s Suite) (*Table, error) {
	s = s.EnsurePool()
	t := &Table{
		ID:     "fig21",
		Title:  "Parallelization ablation (normalized cycles vs dynamic)",
		Header: []string{"Batch", "KVVariance", "Coarse/Dyn", "Interleaved/Dyn"},
	}
	model := workloads.Qwen3Config().Scaled(scenario.PaperScale)
	type batchSpec struct {
		name  string
		sizes []int
	}
	specs := []batchSpec{{"16", []int{16}}, {"64", []int{64}}, {"64+16", []int{64, 16}}}
	samples := 3
	if s.Quick {
		samples = 1
	}
	classes := []trace.VarianceClass{trace.VarHigh, trace.VarMed, trace.VarLow}
	type cell struct{ gc, gi float64 }
	// Each (batch composition, variance class) cell is an independent
	// geomean over its samples: fan the cells out on the pool and render
	// rows afterwards in grid order.
	cells, err := harness.ParMap(s, len(specs)*len(classes), func(idx int) (cell, error) {
		spec := specs[idx/len(classes)]
		class := classes[idx%len(classes)]
		total := 0
		for _, b := range spec.sizes {
			total += b
		}
		gc, gi := 1.0, 1.0
		for i := 0; i < samples; i++ {
			kv := trace.SampleKVLengths(total, 2048, class, s.Seed+uint64(i)*131+uint64(total))
			var micro []int
			if len(spec.sizes) > 1 {
				micro = spec.sizes
			}
			cc, err := runAttention(s, model, kv, workloads.StaticCoarse, micro, 16)
			if err != nil {
				return cell{}, err
			}
			ic, err := runAttention(s, model, kv, workloads.StaticInterleaved, nil, 0)
			if err != nil {
				return cell{}, err
			}
			dc, err := runAttention(s, model, kv, workloads.DynamicParallel, nil, 0)
			if err != nil {
				return cell{}, err
			}
			gc *= float64(cc) / float64(dc)
			gi *= float64(ic) / float64(dc)
		}
		return cell{
			gc: math.Pow(gc, 1/float64(samples)),
			gi: math.Pow(gi, 1/float64(samples)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var coarseRatios, intlRatios []float64
	for si, spec := range specs {
		for ci, class := range classes {
			c := cells[si*len(classes)+ci]
			coarseRatios = append(coarseRatios, c.gc)
			intlRatios = append(intlRatios, c.gi)
			t.AddRow(spec.name, class.String(), c.gc, c.gi)
		}
	}
	t.Notef("geomean normalized cycles: coarse %.2fx, interleaved %.2fx (paper: 1.85x, 1.36x)",
		geomean(coarseRatios), geomean(intlRatios))
	return t, nil
}

func geomean(xs []float64) float64 {
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

package scenario

import (
	"fmt"
	"math"

	"step/internal/graph"
	"step/internal/harness"
	"step/internal/workloads"
)

// attnResult is one simulated attention grid point. Fields are
// exported with JSON tags: the raw result is the unit of work a fabric
// worker ships back to the coordinator (see RunPoint).
type attnResult struct {
	Cycles  uint64 `json:"cycles"`
	KVBytes int64  `json:"kv_bytes"` // total KV-cache footprint of the batch
}

// attentionPlan compiles an attention spec: the cross product of
// models, batch sizes (or a heterogeneous request-group mix), KV-length
// means, GQA KV-head counts, and parallelization strategies, strategy
// innermost, each point one self-contained decode-attention simulation.
// Plain sweeps render one row per point; Compare sweeps pivot the nS
// strategy points of a row into columns.
func attentionPlan(sp Spec, s harness.Suite) (plan[attnResult], error) {
	models, err := sp.resolveModels()
	if err != nil {
		return plan[attnResult]{}, err
	}
	// Axes of a canonical spec: an empty one collapses onto its fixed
	// parameter.
	ba := sp.batchAxis()
	kvMeans := sp.KVMeans
	if len(kvMeans) == 0 {
		kvMeans = []float64{sp.KVMean}
	}
	hasGQA := len(sp.KVHeads) > 0
	kvHeads := sp.KVHeads
	if !hasGQA {
		kvHeads = []int{0} // sentinel: keep the model's own KVHeads
	}
	strategies := sp.Strategies
	variance, err := parseVariance(sp.KVVariance)
	if err != nil {
		return plan[attnResult]{}, err
	}

	nM, nB, nK, nH, nS := len(models), len(ba.sizes), len(kvMeans), len(kvHeads), len(strategies)
	// axes decodes a flat point index, strategy innermost.
	axes := func(idx int) (mi, bi, ki, hi, si int) {
		return idx / (nS * nH * nK * nB), idx / (nS * nH * nK) % nB, idx / (nS * nH) % nK, idx / nS % nH, idx % nS
	}

	// The column set mirrors the active axes.
	showModel := nM > 1
	showBatch := nB > 1 || ba.mix != ""
	showKVMean := nK > 1
	showStrategy := nS > 1 && !sp.Compare
	showKVBytes := showKVMean || hasGQA || ba.mix != ""
	var header []string
	if showModel {
		header = append(header, "Model")
	}
	if showBatch {
		header = append(header, "Batch")
	}
	if showKVMean {
		header = append(header, "KVMeanTokens")
	}
	if hasGQA {
		header = append(header, "KVHeads", "GQARatio", "KVBytesPerToken")
	}
	if showStrategy {
		header = append(header, "Strategy")
	}
	if sp.Compare {
		for _, st := range strategies {
			header = append(header, strategyColumn(st)+"Cycles")
		}
		header = append(header, "Speedup")
	} else {
		header = append(header, "Cycles")
		if showKVBytes {
			header = append(header, "KVCacheBytes")
		}
	}

	// labels renders the axis-label cells of a point's row prefix and
	// names the same position as coordinates.
	labels := func(idx int) ([]any, map[string]string) {
		mi, bi, ki, hi, si := axes(idx)
		cells := make([]any, 0, len(header))
		coords := map[string]string{"model": models[mi].Name}
		if showModel {
			cells = append(cells, models[mi].Name)
		}
		if ba.mix != "" {
			coords["mix"] = ba.mix
		} else {
			coords["batch"] = fmt.Sprint(ba.sizes[bi])
			coords["kv_mean"] = fmt.Sprint(meanLabel(kvMeans[ki]))
		}
		if showBatch {
			if ba.mix != "" {
				cells = append(cells, ba.mix)
			} else {
				cells = append(cells, ba.sizes[bi])
			}
		}
		if showKVMean {
			cells = append(cells, meanLabel(kvMeans[ki]))
		}
		if hasGQA {
			gm := models[mi]
			gm.KVHeads = kvHeads[hi]
			cells = append(cells, kvHeads[hi],
				float64(models[mi].QHeads)/float64(kvHeads[hi]), gm.KVBytesPerToken())
			coords["kv_heads"] = fmt.Sprint(kvHeads[hi])
		}
		if !sp.Compare {
			coords["strategy"] = strategies[si]
			if showStrategy {
				cells = append(cells, strategies[si])
			}
		}
		return cells, coords
	}

	p := plan[attnResult]{header: header, points: nM * nB * nK * nH * nS, group: 1}
	if sp.Compare {
		p.group = nS
	}
	p.point = func(idx int) (attnResult, error) {
		mi, bi, ki, hi, si := axes(idx)
		model := models[mi]
		if hasGQA {
			model.KVHeads = kvHeads[hi]
		}
		kvLens := ba.kvLens(ba.sizes[bi], kvMeans[ki], variance, s.Seed)
		strat, err := parseStrategy(strategies[si])
		if err != nil {
			return attnResult{}, err
		}
		a, err := workloads.BuildAttention(workloads.AttentionConfig{
			Model:       model,
			KVLens:      kvLens,
			Strategy:    strat,
			Regions:     sp.Regions,
			KVChunk:     sp.KVChunk,
			CoarseBlock: sp.CoarseBlock,
		})
		if err != nil {
			return attnResult{}, err
		}
		sess, err := s.Run(a.Program, graph.WithSeed(s.Seed))
		if err != nil {
			return attnResult{}, err
		}
		var total int64
		for _, l := range kvLens {
			total += int64(l)
		}
		return attnResult{Cycles: uint64(sess.Result.Cycles), KVBytes: total * model.KVBytesPerToken()}, nil
	}
	p.row = func(r int, group []attnResult) ([]any, map[string]string) {
		cells, coords := labels(r * len(group))
		if sp.Compare {
			for _, g := range group {
				cells = append(cells, g.Cycles)
			}
			return append(cells, float64(group[0].Cycles)/float64(group[nS-1].Cycles)), coords
		}
		cells = append(cells, group[0].Cycles)
		if showKVBytes {
			cells = append(cells, group[0].KVBytes)
		}
		return cells, coords
	}
	// Headline notes for the beyond-the-paper axes: endpoint ratios at
	// the first batch/KV-mean/strategy combo.
	p.notes = func(all []attnResult) ([]string, error) {
		at := func(mi, ki, hi int) attnResult { return all[((mi*nB*nK+ki)*nH+hi)*nS] }
		var notes []string
		if hasGQA && nH > 1 {
			for mi, model := range models {
				lo, hi := at(mi, 0, 0), at(mi, 0, nH-1)
				notes = append(notes, fmt.Sprintf("%s: KVHeads %d vs %d: KV-cache bytes %.3gx, cycles %.3gx",
					model.Name, kvHeads[0], kvHeads[nH-1],
					float64(lo.KVBytes)/float64(hi.KVBytes),
					float64(lo.Cycles)/float64(hi.Cycles)))
			}
		}
		if nK > 1 {
			for mi, model := range models {
				lo, hi := at(mi, 0, 0), at(mi, nK-1, 0)
				notes = append(notes, fmt.Sprintf("%s: KV mean %v -> %v: cycles %.2fx, KV-cache bytes %.2fx",
					model.Name, meanLabel(kvMeans[0]), meanLabel(kvMeans[nK-1]),
					float64(hi.Cycles)/float64(lo.Cycles),
					float64(hi.KVBytes)/float64(lo.KVBytes)))
			}
		}
		return notes, nil
	}
	return p, nil
}

// meanLabel renders a KV-mean axis value: integral means print as
// integers (16384, not 1.638e+04).
func meanLabel(v float64) any {
	if v == math.Trunc(v) {
		return int64(v)
	}
	return v
}

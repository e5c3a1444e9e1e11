package scenario

import (
	"fmt"
	"strconv"

	"step/internal/graph"
	"step/internal/harness"
	"step/internal/workloads"
)

// decoderResult is one simulated decoder grid point. Fields are
// exported with JSON tags so the raw result can ship between fabric
// workers and the coordinator (see RunPoint).
type decoderResult struct {
	Cycles  uint64 `json:"cycles"`
	Onchip  int64  `json:"onchip"`
	Traffic int64  `json:"traffic"`
	AllocBW int64  `json:"alloc_bw"`
}

// decoderPlan compiles a decoder spec: models x batch sizes x
// schedules through workloads.RunDecoder, reporting end-to-end latency,
// on-chip footprint, off-chip traffic, and allocated compute. One point
// is one table row.
func decoderPlan(sp Spec, s harness.Suite) (plan[decoderResult], error) {
	models, err := sp.resolveModels()
	if err != nil {
		return plan[decoderResult]{}, err
	}
	ba := sp.batchAxis()
	schedules := sp.Strategies
	variance, err := parseVariance(sp.KVVariance)
	if err != nil {
		return plan[decoderResult]{}, err
	}
	skew, err := parseSkew(sp.Skew)
	if err != nil {
		return plan[decoderResult]{}, err
	}
	sampleLayers := sp.SampleLayers
	if sampleLayers == 0 {
		sampleLayers = 2
		if s.Quick {
			sampleLayers = 1
		}
	}

	nM, nB, nS := len(models), len(ba.sizes), len(schedules)
	axes := func(idx int) (mi, bi, si int) { return idx / (nS * nB), idx / nS % nB, idx % nS }
	showModel := nM > 1
	showBatch := nB > 1
	var header []string
	if showModel {
		header = append(header, "Model")
	}
	if showBatch {
		header = append(header, "Batch")
	}
	header = append(header, "Schedule", "CyclesTotal", "OnchipBytes", "TrafficBytes", "AllocComputeFLOPs/cyc")
	return plan[decoderResult]{
		header: header,
		points: nM * nB * nS,
		group:  1,
		point: func(idx int) (decoderResult, error) {
			mi, bi, si := axes(idx)
			b := ba.sizes[bi]
			sched, err := parseSchedule(schedules[si])
			if err != nil {
				return decoderResult{}, err
			}
			res, err := workloads.RunDecoder(workloads.DecoderConfig{
				Model:        models[mi],
				Batch:        b,
				KVLens:       ba.kvLens(b, sp.KVMean, variance, s.Seed),
				MoETile:      sched.moeTile,
				MoEDynamic:   sched.moeDynamic,
				MoERegions:   sp.MoERegions,
				AttnStrategy: sched.attn,
				AttnRegions:  sp.Regions,
				SampleLayers: sampleLayers,
				Skew:         skew,
				Seed:         s.Seed,
			}, graph.WithSimWorkers(s.SimWorkers))
			if err != nil {
				return decoderResult{}, err
			}
			return decoderResult{
				Cycles:  uint64(res.CyclesTotal),
				Onchip:  res.OnchipBytes,
				Traffic: res.TrafficBytes,
				AllocBW: res.AllocatedComputeBW,
			}, nil
		},
		row: func(idx int, group []decoderResult) ([]any, map[string]string) {
			mi, bi, si := axes(idx)
			r := group[0]
			cells := make([]any, 0, len(header))
			if showModel {
				cells = append(cells, models[mi].Name)
			}
			if showBatch {
				cells = append(cells, ba.sizes[bi])
			}
			cells = append(cells, schedules[si], r.Cycles, r.Onchip, r.Traffic, r.AllocBW)
			return cells, map[string]string{
				"model":    models[mi].Name,
				"batch":    strconv.Itoa(ba.sizes[bi]),
				"schedule": schedules[si],
			}
		},
		// Last schedule vs first, per (model, batch).
		notes: func(all []decoderResult) ([]string, error) {
			if nS < 2 {
				return nil, nil
			}
			var notes []string
			for mi, model := range models {
				for bi, b := range ba.sizes {
					first, last := all[(mi*nB+bi)*nS], all[(mi*nB+bi)*nS+nS-1]
					notes = append(notes, fmt.Sprintf("%s b=%d: %s vs %s speedup %.2fx, onchip %.2fx",
						model.Name, b, schedules[nS-1], schedules[0],
						float64(first.Cycles)/float64(last.Cycles),
						float64(first.Onchip)/float64(last.Onchip)))
				}
			}
			return notes, nil
		},
	}, nil
}

package experiments

import (
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/trace"
	"step/internal/workloads"
)

// timesharePoint is one region-count design point of Figs. 12/13.
type timesharePoint struct {
	regions     int
	cycles      uint64
	computeUtil float64
	onchip      int64
	allocBW     int64
	offchipUtil float64
}

// runTimeshareSweep sweeps the number of parallel regions for the Qwen MoE
// layer at batch 64 (§5.3).
func runTimeshareSweep(s Suite, dynamic bool, tileSize int, regions []int) ([]timesharePoint, error) {
	model := workloads.Qwen3Config().Scaled(scenario.PaperScale)
	routing, err := trace.SampleExpertRouting(64, model.NumExperts, model.TopK, trace.SkewHeavy, s.Seed)
	if err != nil {
		return nil, err
	}
	// Region counts are independent design points: fan them out on the
	// pool, collected in sweep order.
	return harness.ParMap(s, len(regions), func(i int) (timesharePoint, error) {
		r := regions[i]
		l, err := workloads.BuildMoELayer(workloads.MoELayerConfig{
			Model: model, Batch: 64,
			TileSize: tileSize, Dynamic: dynamic, Regions: r,
			Routing: routing, Seed: s.Seed,
		})
		if err != nil {
			return timesharePoint{}, err
		}
		sess, err := s.Run(l.Program)
		if err != nil {
			return timesharePoint{}, err
		}
		res := sess.Result
		oc, err := l.OnchipBytes()
		if err != nil {
			return timesharePoint{}, err
		}
		return timesharePoint{
			regions:     r,
			cycles:      uint64(res.Cycles),
			computeUtil: res.ComputeUtilization(),
			onchip:      oc,
			allocBW:     res.AllocatedComputeBW,
			offchipUtil: res.OffchipBWUtilization(sess.Config.HBM.BandwidthBytesPerCycle),
		}, nil
	})
}

// timeshareRegions is the Fig. 12/13 sweep: 128 regions (one per expert)
// down to 4 (32 experts per region).
func timeshareRegions(quick bool) []int {
	if quick {
		return []int{128, 16, 4}
	}
	return []int{128, 64, 32, 16, 8, 4}
}

// Figure12 reports compute utilization and cycles across region counts for
// static and dynamic tiling.
func Figure12(s Suite) (*Table, error) {
	s = s.EnsurePool()
	t := &Table{
		ID:     "fig12",
		Title:  "Time-multiplexing: compute utilization (Qwen MoE, batch=64)",
		Header: []string{"Tiling", "Regions", "ExpertsPerRegion", "ComputeUtil", "Cycles"},
	}
	variants := []bool{false, true}
	swept, err := harness.ParMap(s, len(variants), func(i int) ([]timesharePoint, error) {
		return runTimeshareSweep(s, variants[i], 32, timeshareRegions(s.Quick))
	})
	if err != nil {
		return nil, err
	}
	for vi, dyn := range variants {
		pts := swept[vi]
		name := "static(32)"
		if dyn {
			name = "dynamic"
		}
		for _, p := range pts {
			t.AddRow(name, p.regions, 128/p.regions, p.computeUtil, p.cycles)
		}
		// The paper's headline is the utilization gain while the cycle
		// overhead stays small; past that point too few parallel regions
		// under-drive off-chip bandwidth (Fig. 13's explanation). Report
		// the best gain with overhead under 15%, falling back to the
		// sweep's second point when the (coarse) quick sweep skips the
		// low-overhead region.
		bestGain, bestRegions, bestOver := 1.0, pts[0].regions, 0.0
		for _, p := range pts[1:] {
			over := float64(p.cycles)/float64(pts[0].cycles) - 1
			if g := p.computeUtil / pts[0].computeUtil; over < 0.15 && g > bestGain {
				bestGain, bestRegions, bestOver = g, p.regions, over
			}
		}
		if bestGain == 1.0 && len(pts) > 1 {
			p := pts[1]
			bestGain = p.computeUtil / pts[0].computeUtil
			bestRegions = p.regions
			bestOver = float64(p.cycles)/float64(pts[0].cycles) - 1
		}
		t.Notef("%s: utilization gain %.2fx at %d regions with %.1f%% cycle overhead (paper: 2.51-2.64x, <1-5%%)",
			name, bestGain, bestRegions, bestOver*100)
	}
	return t, nil
}

// Figure13 reports the resource view of the same sweep: cycles, on-chip
// memory, allocated compute, and off-chip bandwidth utilization.
func Figure13(s Suite) (*Table, error) {
	s = s.EnsurePool()
	t := &Table{
		ID:     "fig13",
		Title:  "Time-multiplexing: resources (Qwen MoE, tile=32, batch=64)",
		Header: []string{"Regions", "Cycles", "OnchipBytes", "AllocComputeFLOPs/cyc", "OffchipBWUtil"},
	}
	pts, err := runTimeshareSweep(s, false, 32, timeshareRegions(s.Quick))
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		t.AddRow(p.regions, p.cycles, p.onchip, p.allocBW, p.offchipUtil)
	}
	first, last := pts[0], pts[len(pts)-1]
	t.Notef("memory saving at %d regions: %.0f%% (paper: 46%%); compute saving: %.0f%% (paper: 62%%)",
		last.regions,
		100*(1-float64(last.onchip)/float64(first.onchip)),
		100*(1-float64(last.allocBW)/float64(first.allocBW)))
	return t, nil
}

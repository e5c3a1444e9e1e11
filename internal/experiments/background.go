package experiments

import (
	"fmt"
	"math"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/hbm"
	"step/internal/hdlsim"
	"step/internal/onchip"
	"step/internal/ops"
	"step/internal/roofline"
	"step/internal/shape"
	"step/internal/tile"
	"step/internal/workloads"
)

// Table1 reproduces the qualitative abstraction-landscape table.
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Landscape of programming abstractions for SDAs",
		Header: []string{"Abstraction", "DataFlow", "ExplicitDataRate", "ExplicitMemHierarchy", "DynRouting&Merging", "DynOnchipTiling"},
	}
	t.AddRow("Spatial", "no", "no", "yes", "no", "no")
	t.AddRow("Revet", "no", "no", "yes", "limited", "no")
	t.AddRow("StreamIt", "yes", "yes", "no", "no", "no")
	t.AddRow("SAM", "yes", "no", "no", "limited", "limited")
	t.AddRow("Ripple", "yes", "no", "no", "yes", "no")
	t.AddRow("STeP", "yes", "yes", "yes", "yes", "yes")
	return t
}

// Figure1 regenerates the effective-bandwidth bars.
func Figure1() *Table {
	t := &Table{
		ID:     "fig1",
		Title:  "Effective HBM bandwidth, SDAs vs GPUs (TB/s)",
		Header: []string{"Model", "Batch", "Platform", "PeakTB/s", "EffectiveTB/s", "FracOfPeak"},
	}
	for _, e := range roofline.Figure1() {
		t.AddRow(e.Workload.Model, e.Workload.Batch, e.Platform.Name,
			e.Platform.PeakTB, e.EffectiveTB(), e.FracOfPeak)
	}
	return t
}

// Figure8 sweeps SwiGLU tile sizes and compares the STeP simulator against
// the fine-grained physical-tile reference, reporting cycles, traffic, and
// the Pearson correlation (the paper reports 0.99 against its HDL model).
func Figure8(s Suite) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "SwiGLU validation: STeP simulator vs fine-grained reference",
		Header: []string{"TileSize(B,H,I)", "STePCycles", "RefCycles", "TrafficMB", "RefTrafficMB"},
	}
	var xs, ys []float64
	for _, bt := range []int{16, 32, 64} {
		for _, it := range []int{16, 32, 64, 128, 256} {
			scfg := workloads.SwiGLUConfig{
				Batch: 64, Hidden: 256, Inter: 512,
				BatchTile: bt, InterTile: it, Seed: s.Seed,
			}
			sw, err := workloads.BuildSwiGLU(scfg)
			if err != nil {
				return nil, err
			}
			// The validation hardware (§4.5): on-chip memory units at
			// 256 B/cycle.
			sess, err := s.Run(sw.Program,
				graph.WithOnchip(onchip.Config{BandwidthBytesPerCycle: 256}))
			if err != nil {
				return nil, err
			}
			res := sess.Result
			ref, err := hdlsim.Simulate(hdlsim.Config{
				Batch: 64, Hidden: 256, Inter: 512,
				BatchTile: bt, InterTile: it,
				OnchipBytesPerCycle: 256,
				HBM:                 hbm.DefaultConfig(),
			})
			if err != nil {
				return nil, err
			}
			s.AddSched(ref.Sched)
			xs = append(xs, float64(res.Cycles))
			ys = append(ys, float64(ref.Cycles))
			t.AddRow(fmt.Sprintf("(%d,256,%d)", bt, it),
				uint64(res.Cycles), uint64(ref.Cycles),
				float64(res.OffchipTrafficBytes)/1e6, float64(ref.TrafficBytes)/1e6)
		}
	}
	t.Notef("Pearson correlation (cycles): %.4f (paper: 0.99)", pearson(xs, ys))
	return t, nil
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		dx += (x[i] - mx) * (x[i] - mx)
		dy += (y[i] - my) * (y[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// Figure18 demonstrates the hierarchical-tiling transformation: the
// physical-granularity graph computes the same result as the large-tile
// Map node, with its cycle cost.
func Figure18(s Suite) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "Hierarchical tiling: large-tile map vs transformed graph",
		Header: []string{"Variant", "Cycles", "OutputTiles", "MatchesReference"},
	}
	const (
		tLen = 4
		k    = hdlsim.Phys
		m    = 2 * hdlsim.Phys
		n    = 16 * hdlsim.Phys
	)
	var aT, bT []*tile.Tile
	for i := 0; i < tLen; i++ {
		aT = append(aT, tile.Random(k, m, s.Seed+uint64(i)))
		bT = append(bT, tile.Random(k, n, s.Seed+uint64(i)+50))
	}
	build := func(transformed bool) (uint64, []*tile.Tile, error) {
		g := graph.New()
		var aE, bE []element.Element
		for i := 0; i < tLen; i++ {
			aE = append(aE, element.DataOf(element.TileVal{T: aT[i]}))
			bE = append(bE, element.DataOf(element.TileVal{T: bT[i]}))
		}
		aE = append(aE, element.DoneElem)
		bE = append(bE, element.DoneElem)
		aS := ops.Source(g, "a", shape.OfInts(tLen), graph.StaticTile(k, m), aE)
		bS := ops.Source(g, "b", shape.OfInts(tLen), graph.StaticTile(k, n), bE)
		var out *graph.Stream
		if transformed {
			out = hdlsim.TransformedMatmulATB(g, aS, bS, hdlsim.Phys)
		} else {
			out = ops.Map2(g, "atb", aS, bS, ops.MatmulATBFn(), ops.ComputeOpts{ComputeBW: 1024})
		}
		ops.Capture(g, "cap", out)
		prog, err := g.Compile()
		if err != nil {
			return 0, nil, err
		}
		sess, err := s.Run(prog)
		if err != nil {
			return 0, nil, err
		}
		captured, _ := sess.Captured("cap")
		var tiles []*tile.Tile
		for _, e := range captured {
			if e.IsData() {
				tiles = append(tiles, e.Value.(element.TileVal).T)
			}
		}
		return uint64(sess.Result.Cycles), tiles, nil
	}
	check := func(tiles []*tile.Tile) bool {
		if len(tiles) != tLen {
			return false
		}
		for i := range tiles {
			if !tile.Equal(tiles[i], tile.MatMul(aT[i].Transpose(), bT[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	for _, variant := range []bool{false, true} {
		cyc, tiles, err := build(variant)
		if err != nil {
			return nil, err
		}
		name := "large-tile map"
		if variant {
			name = "transformed (16x16 physical)"
		}
		t.AddRow(name, cyc, len(tiles), check(tiles))
	}
	return t, nil
}

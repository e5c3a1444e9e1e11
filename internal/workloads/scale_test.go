package workloads

import (
	"testing"

	"step/internal/trace"
)

// TestParetoShapeQwenB64 checks the qualitative Fig. 9 result at the
// experiment scale: the static-tiling sweep trades on-chip memory for
// cycles, and dynamic tiling beats the static frontier on both axes
// against at least one static point.
func TestParetoShapeQwenB64(t *testing.T) {
	m := Qwen3Config().Scaled(8)
	r, err := trace.SampleExpertRouting(64, m.NumExperts, m.TopK, trace.SkewHeavy, 1)
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		tile          int
		cycles        uint64
		onchip, traff int64
	}
	var static []pt
	for _, ts := range []int{8, 16, 32, 64} {
		l, err := BuildMoELayer(MoELayerConfig{Model: m, Batch: 64, TileSize: ts, Routing: r})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := l.Program.Run()
		if err != nil {
			t.Fatal(err)
		}
		res := sess.Result
		oc, err := l.OnchipBytes()
		if err != nil {
			t.Fatal(err)
		}
		static = append(static, pt{ts, uint64(res.Cycles), oc, res.OffchipTrafficBytes})
	}
	ld, err := BuildMoELayer(MoELayerConfig{Model: m, Batch: 64, Dynamic: true, Routing: r})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ld.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	resD := sess.Result
	ocD, err := ld.OnchipBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range static {
		t.Logf("static tile=%d: cycles=%d onchip=%.2fMB traffic=%.1fMB", p.tile, p.cycles, float64(p.onchip)/1e6, float64(p.traff)/1e6)
		if i > 0 {
			if p.traff >= static[i-1].traff {
				t.Errorf("larger tile %d should reload less weight traffic: %d >= %d", p.tile, p.traff, static[i-1].traff)
			}
			if p.onchip <= static[i-1].onchip {
				t.Errorf("larger tile %d should need more memory: %d <= %d", p.tile, p.onchip, static[i-1].onchip)
			}
		}
	}
	if static[0].cycles <= static[len(static)-1].cycles {
		t.Errorf("smallest tile should be slowest: %d <= %d", static[0].cycles, static[len(static)-1].cycles)
	}
	t.Logf("dynamic: cycles=%d onchip=%.2fMB traffic=%.1fMB", resD.Cycles, float64(ocD)/1e6, float64(resD.OffchipTrafficBytes)/1e6)
	// Dynamic must dominate at least one static Pareto point.
	dominates := false
	for _, p := range static {
		if uint64(resD.Cycles) <= p.cycles && ocD <= p.onchip {
			dominates = true
		}
	}
	if !dominates {
		t.Error("dynamic tiling should dominate some static point (Fig. 9)")
	}
}

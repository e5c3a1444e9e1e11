package hdlsim

import (
	"math"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/hbm"
	"step/internal/onchip"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/tile"
	"step/internal/workloads"
)

func TestSimulateBasic(t *testing.T) {
	cfg := Config{
		Batch: 64, Hidden: 256, Inter: 512,
		BatchTile: 16, InterTile: 64,
		OnchipBytesPerCycle: 256,
		HBM:                 hbm.DefaultConfig(),
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	// Traffic: x + nB×(w1+w3+w2) + y.
	want := workloads.SwiGLUTrafficBytes(workloads.SwiGLUConfig{
		Batch: 64, Hidden: 256, Inter: 512, BatchTile: 16, InterTile: 64,
	})
	if res.TrafficBytes != want {
		t.Fatalf("traffic = %d, want %d", res.TrafficBytes, want)
	}
}

func TestSimulateRejectsBadTiles(t *testing.T) {
	_, err := Simulate(Config{Batch: 10, Hidden: 16, Inter: 16, BatchTile: 3, InterTile: 16, HBM: hbm.DefaultConfig()})
	if err == nil {
		t.Fatal("expected divisibility error")
	}
}

// TestFigure8Correlation is the validation experiment: the STeP
// operator-level simulator's cycle counts must correlate strongly with the
// fine-grained physical-tile model across the Fig. 8 tile sweep.
func TestFigure8Correlation(t *testing.T) {
	var stepCycles, hdlCycles []float64
	for _, bt := range []int{16, 32, 64} {
		for _, it := range []int{16, 32, 64, 128, 256} {
			scfg := workloads.SwiGLUConfig{
				Batch: 64, Hidden: 256, Inter: 512,
				BatchTile: bt, InterTile: it, Seed: 1,
			}
			sw, err := workloads.BuildSwiGLU(scfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sw.Program.Run(graph.WithOnchip(onchip.Config{BandwidthBytesPerCycle: 256}))
			if err != nil {
				t.Fatal(err)
			}
			res := sess.Result
			href, err := Simulate(Config{
				Batch: 64, Hidden: 256, Inter: 512,
				BatchTile: bt, InterTile: it,
				OnchipBytesPerCycle: 256,
				HBM:                 hbm.DefaultConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			stepCycles = append(stepCycles, float64(res.Cycles))
			hdlCycles = append(hdlCycles, float64(href.Cycles))
			// Traffic must agree exactly: both models move the same bytes.
			if res.OffchipTrafficBytes != href.TrafficBytes {
				t.Errorf("(%d,%d): traffic %d vs %d", bt, it, res.OffchipTrafficBytes, href.TrafficBytes)
			}
		}
	}
	r := pearson(stepCycles, hdlCycles)
	t.Logf("Pearson correlation over %d design points: %.4f", len(stepCycles), r)
	if r < 0.9 {
		t.Fatalf("correlation %.4f below 0.9 (paper reports 0.99)", r)
	}
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

func TestTransformedMatmulMatchesDirect(t *testing.T) {
	// Fig. 18: the hierarchically tiled graph computes the same Aᵀ×B as a
	// single large-tile Map.
	const (
		tLen = 3
		k    = Phys
		m    = 2 * Phys
		n    = 4 * Phys
	)
	g := graph.New()
	var aT, bT []*tile.Tile
	var aE, bE []element.Element
	for i := 0; i < tLen; i++ {
		a := tile.Random(k, m, uint64(i)+1)
		b := tile.Random(k, n, uint64(i)+100)
		aT, bT = append(aT, a), append(bT, b)
		aE = append(aE, element.DataOf(element.TileVal{T: a}))
		bE = append(bE, element.DataOf(element.TileVal{T: b}))
	}
	aE = append(aE, element.DoneElem)
	bE = append(bE, element.DoneElem)
	aS := ops.Source(g, "a", shape.OfInts(tLen), graph.StaticTile(k, m), aE)
	bS := ops.Source(g, "b", shape.OfInts(tLen), graph.StaticTile(k, n), bE)
	out := TransformedMatmulATB(g, aS, bS, Phys)
	ops.Capture(g, "cap", out)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	captured, _ := sess.Captured("cap")
	var got []*tile.Tile
	for _, e := range captured {
		if e.IsData() {
			got = append(got, e.Value.(element.TileVal).T)
		}
	}
	if len(got) != tLen {
		t.Fatalf("%d outputs", len(got))
	}
	for i := range got {
		want := tile.MatMul(aT[i].Transpose(), bT[i])
		if !tile.Equal(got[i], want, 1e-3) {
			t.Fatalf("tensor %d mismatch", i)
		}
	}
}

package workloads

import (
	"fmt"

	"step/internal/graph"
	"step/internal/ops"
	"step/internal/symbolic"
	"step/internal/tile"
)

// SwiGLUConfig parameterizes the Fig. 8 validation workload: a single
// SwiGLU layer y = (SiLU(x·W1) ⊙ (x·W3))·W2, tiled along the batch and MoE
// intermediate dimensions. The paper sweeps tile sizes
// (batch, hidden, inter) with full sizes (64, 256, 512).
type SwiGLUConfig struct {
	Batch, Hidden, Inter int
	BatchTile, InterTile int
	// Functional computes real values; otherwise tiles are shape-only.
	Functional bool
	Seed       uint64
}

// DefaultSwiGLUConfig matches the full dimensions of Fig. 8.
func DefaultSwiGLUConfig() SwiGLUConfig {
	return SwiGLUConfig{Batch: 64, Hidden: 256, Inter: 512, BatchTile: 16, InterTile: 64, Seed: 1}
}

// Validate checks divisibility.
func (c SwiGLUConfig) Validate() error {
	if c.Batch%c.BatchTile != 0 {
		return fmt.Errorf("workloads: batch %d not divisible by tile %d", c.Batch, c.BatchTile)
	}
	if c.Inter%c.InterTile != 0 {
		return fmt.Errorf("workloads: inter %d not divisible by tile %d", c.Inter, c.InterTile)
	}
	if c.BatchTile <= 0 || c.InterTile <= 0 {
		return fmt.Errorf("workloads: non-positive tiles")
	}
	return nil
}

// SwiGLU is the built validation workload.
type SwiGLU struct {
	// Program is the compiled validation graph.
	Program *graph.Program
	Cfg     SwiGLUConfig
	Store   *ops.StoreHandle
	x       *tile.Tile
	w1      *tile.Tile
	w3      *tile.Tile
	w2      *tile.Tile
}

// BuildSwiGLU constructs the STeP graph: the input is loaded from off-chip
// in batch tiles, each tile streams through W1/W3/W2 strips along the
// intermediate dimension, and results are stored back off-chip.
func BuildSwiGLU(cfg SwiGLUConfig) (*SwiGLU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := graph.New()
	nB := cfg.Batch / cfg.BatchTile
	nS := cfg.Inter / cfg.InterTile

	mk := func(rows, cols int, seed uint64) *tile.Tile {
		if cfg.Functional {
			return tile.Random(rows, cols, seed)
		}
		return tile.ShapeOnly(rows, cols)
	}
	x := mk(cfg.Batch, cfg.Hidden, cfg.Seed)
	w1 := mk(cfg.Hidden, cfg.Inter, cfg.Seed+1)
	w3 := mk(cfg.Hidden, cfg.Inter, cfg.Seed+2)
	w2 := mk(cfg.Inter, cfg.Hidden, cfg.Seed+3)

	// Load x in [BatchTile, Hidden] tiles.
	xt, err := ops.NewOffChipTensor(x, cfg.BatchTile, cfg.Hidden)
	if err != nil {
		return nil, err
	}
	xs := ops.LinearOffChipLoadStatic(g, "xload", 1, xt, [2]int{1, 1}, [2]int{nB, 1})
	xflat := ops.Flatten(g, "xflat", xs, 0, 2)

	refs := ops.Broadcast(g, "xrefs", xflat, 4)
	loadStrips := func(tag string, w *tile.Tile, rows, cols int, ref *graph.Stream) *graph.Stream {
		tensor, err := ops.NewOffChipTensor(w, rows, cols)
		if err != nil {
			g.Errf("%s: %v", tag, err)
		}
		grid := (w.Rows / rows) * (w.Cols / cols)
		s := ops.LinearOffChipLoad(g, tag, ref, tensor, [2]int{grid, 1}, [2]int{1, grid})
		return ops.Flatten(g, tag+".flat", s, 0, 1)
	}
	w1s := loadStrips("w1load", w1, cfg.Hidden, cfg.InterTile, refs[1])
	w3s := loadStrips("w3load", w3, cfg.Hidden, cfg.InterTile, refs[2])
	w2s := loadStrips("w2load", w2, cfg.InterTile, cfg.Hidden, refs[3])

	xe := ops.RepeatElems(g, "xexpand", refs[0], nS)
	xBC := ops.Broadcast(g, "x.bc", xe, 2)

	bw := int64(cfg.BatchTile) * 1024
	stripBytes := symbolic.Const(int64(cfg.Hidden) * int64(cfg.InterTile) * tile.ElemBytes)
	hBytes := symbolic.Const(int64(cfg.BatchTile) * int64(cfg.InterTile) * tile.ElemBytes)
	yBytes := symbolic.Const(int64(cfg.BatchTile) * int64(cfg.Hidden) * tile.ElemBytes)

	a := ops.Map2(g, "xw1", xBC[0], w1s, ops.MatmulFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(cfg.Hidden)), stripBytes, hBytes, false))
	c := ops.Map2(g, "xw3", xBC[1], w3s, ops.MatmulFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(cfg.Hidden)), stripBytes, hBytes, false))
	sa := ops.Map(g, "silu", a, ops.SiLUFn(), ops.ComputeOpts{ComputeBW: 64})
	h := ops.Map2(g, "gate", sa, c, ops.ElemMulFn(), ops.ComputeOpts{ComputeBW: 64})

	hw := ops.Zip(g, "hw2.zip", h, w2s)
	y := ops.Accum(g, "yacc", hw, 1, ops.MatmulAccFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(cfg.InterTile)),
			symbolic.Const(int64(cfg.InterTile)*int64(cfg.Hidden)*tile.ElemBytes), yBytes, true))

	store := ops.LinearOffChipStore(g, "ystore", y)
	prog, err := g.Compile()
	if err != nil {
		return nil, err
	}
	return &SwiGLU{Program: prog, Cfg: cfg, Store: store, x: x, w1: w1, w3: w3, w2: w2}, nil
}

// Reference computes the expected output at the tensor level.
func (s *SwiGLU) Reference() *tile.Tile {
	a := tile.MatMul(s.x, s.w1)
	c := tile.MatMul(s.x, s.w3)
	h := tile.Mul(tile.SiLU(a), c)
	return tile.MatMul(h, s.w2)
}

// Output reassembles the tiles the session's run stored into the
// [Batch, Hidden] result.
func (s *SwiGLU) Output(sess *graph.Session) (*tile.Tile, error) {
	tiles := s.Store.Tiles(sess)
	want := s.Cfg.Batch / s.Cfg.BatchTile
	if len(tiles) != want {
		return nil, fmt.Errorf("workloads: stored %d tiles, want %d", len(tiles), want)
	}
	out := tile.New(0, 0)
	for _, t := range tiles {
		out = tile.ConcatRows(out, t)
	}
	return out, nil
}

// SwiGLUTrafficBytes returns the analytic off-chip traffic of the
// schedule: x once, all three weights once per batch tile, y once.
func SwiGLUTrafficBytes(cfg SwiGLUConfig) int64 {
	nB := int64(cfg.Batch / cfg.BatchTile)
	xB := int64(cfg.Batch) * int64(cfg.Hidden) * tile.ElemBytes
	wB := 3 * int64(cfg.Hidden) * int64(cfg.Inter) * tile.ElemBytes
	yB := xB
	return xB + nB*wB + yB
}

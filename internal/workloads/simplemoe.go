package workloads

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

// SimpleMoEConfig parameterizes the simplified two-expert MoE of §3.3
// (Figs. 6 and 7): each expert is a single matrix multiplication, rows are
// routed dynamically, packed into tiles of PackRows rows, multiplied with
// a column-tiled weight, and gathered back in input order.
type SimpleMoEConfig struct {
	Rows       int // input rows (10 in the paper's example)
	Hidden     int // input feature dim (64)
	Out        int // output feature dim (256)
	PackRows   int // rows packed per tile (4)
	WeightCols int // weight column-tile width (64)
	NumExperts int
	// Routing[i] is the expert for row i.
	Routing []int
	// Seed drives the deterministic input/weight values.
	Seed uint64
}

// DefaultSimpleMoEConfig reproduces the dimensions of Fig. 6.
func DefaultSimpleMoEConfig() SimpleMoEConfig {
	routing := make([]int, 10)
	for i := range routing {
		routing[i] = (i * 7 % 10) % 2
	}
	return SimpleMoEConfig{
		Rows: 10, Hidden: 64, Out: 256,
		PackRows: 4, WeightCols: 64,
		NumExperts: 2, Routing: routing, Seed: 1,
	}
}

// SimpleMoE is the built graph plus handles to inspect the run.
type SimpleMoE struct {
	// Program is the compiled walkthrough graph.
	Program *graph.Program
	Output  *ops.CaptureOp
	cfg     SimpleMoEConfig
	input   *tile.Tile
	weights []*tile.Tile
}

// BuildSimpleMoE constructs the STeP graph of Fig. 7, returning handles to
// the captured output stream.
func BuildSimpleMoE(cfg SimpleMoEConfig) (*SimpleMoE, error) {
	if len(cfg.Routing) != cfg.Rows {
		return nil, fmt.Errorf("workloads: routing has %d entries for %d rows", len(cfg.Routing), cfg.Rows)
	}
	if cfg.Out%cfg.WeightCols != 0 {
		return nil, fmt.Errorf("workloads: out dim %d not divisible by weight tile %d", cfg.Out, cfg.WeightCols)
	}
	nWTiles := cfg.Out / cfg.WeightCols
	g := graph.New()

	// Input rows as a [Rows, 1] stream of [1, Hidden] tiles.
	input := tile.Random(cfg.Rows, cfg.Hidden, cfg.Seed)
	var inElems []element.Element
	for i := 0; i < cfg.Rows; i++ {
		inElems = append(inElems,
			element.DataOf(element.TileVal{T: input.Slice(i, i+1, 0, cfg.Hidden)}),
			element.StopOf(1))
	}
	inElems = append(inElems, element.DoneElem)
	in := ops.Source(g, "in", shape.OfInts(cfg.Rows, 1), graph.StaticTile(1, cfg.Hidden), inElems)

	// Selector stream: one single-hot selector per row.
	var selElems []element.Element
	for _, e := range cfg.Routing {
		selElems = append(selElems, element.DataOf(element.NewSelector(cfg.NumExperts, e)))
	}
	selElems = append(selElems, element.DoneElem)
	selSrc := ops.Source(g, "selector", shape.OfInts(cfg.Rows), graph.SelectorType{N: cfg.NumExperts}, selElems)
	sels := ops.Broadcast(g, "selector.bc", selSrc, 2)

	// Route: Partition rank 1 over experts (Fig. 7).
	parts := ops.Partition(g, "route", in, sels[0], 1, cfg.NumExperts)

	// Per-expert weights, distinct per expert.
	weights := make([]*tile.Tile, cfg.NumExperts)
	expertOut := make([]*graph.Stream, cfg.NumExperts)
	for e := 0; e < cfg.NumExperts; e++ {
		weights[e] = tile.Random(cfg.Hidden, cfg.Out, cfg.Seed+uint64(e)+100)
		expertOut[e] = buildSimpleExpert(g, fmt.Sprintf("e%d", e), cfg, parts[e], weights[e], nWTiles)
	}

	// Merge: Reassemble [1, Out] tiles by the original selector.
	out := ops.Reassemble(g, "merge", expertOut, sels[1], 1)
	// Listing 1 line 26: the programmer knows the output mirrors the input
	// stream's shape.
	out.OverrideShape(shape.New(shape.Static(cfg.Rows), shape.Dynamic(symbolic.Sym("Dsel")), shape.Static(1)))

	cap := ops.Capture(g, "out", out)
	prog, err := g.Compile()
	if err != nil {
		return nil, err
	}
	return &SimpleMoE{Program: prog, Output: cap, cfg: cfg, input: input, weights: weights}, nil
}

// buildSimpleExpert builds one expert's subgraph: pack rows to tiles,
// broadcast against column-tiled weights, matmul, and unpack back to rows
// (the labelled regions of Fig. 7).
func buildSimpleExpert(g *graph.Graph, name string, cfg SimpleMoEConfig, in *graph.Stream, weight *tile.Tile, nWTiles int) *graph.Stream {
	// Pack to tile: [D,1] -> [D] -> [ceil(D/P), P] -> packed [P, H] tiles.
	flat := ops.Flatten(g, name+".flatten", in, 0, 1)
	padTile := tile.New(1, cfg.Hidden)
	rows, padFlags := ops.Reshape(g, name+".reshape", flat, 0, cfg.PackRows, element.TileVal{T: padTile})
	packFn := ops.RetileRowToFn(graph.StaticTile(cfg.PackRows, cfg.Hidden))
	packed := ops.Accum(g, name+".pack", rows, 1, packFn, ops.ComputeOpts{})
	// Name the packed-tile count, so the §4.2 traffic equation reads the
	// same in this program and in one decoded from its IR.
	packed.OverrideShape(shape.New(shape.NamedRagged(name + ".tiles")))

	packedBC := ops.Broadcast(g, name+".packed.bc", packed, 2)

	// Broadcast: each packed tile repeats once per weight column tile.
	expanded := ops.RepeatElems(g, name+".expand", packedBC[0], nWTiles)

	// Load weight: column tiles [H, WC], one pass per packed tile.
	tensor, err := ops.NewOffChipTensor(weight, cfg.Hidden, cfg.WeightCols)
	if err != nil {
		g.Errf("%s: %v", name, err)
		return nil
	}
	wstream := ops.LinearOffChipLoad(g, name+".wload", packedBC[1], tensor, [2]int{nWTiles, 1}, [2]int{1, nWTiles})
	wflat := ops.Flatten(g, name+".wflatten", wstream, 0, 1)

	// Compute: [P,H] × [H,WC] per column tile; no reduction-dim tiling.
	prod := ops.Map2(g, name+".matmul", expanded, wflat, ops.MatmulFn(),
		ops.MatmulOpts(1024,
			symbolic.Const(int64(cfg.Hidden)),
			symbolic.Const(int64(cfg.Hidden)*int64(cfg.WeightCols)*tile.ElemBytes),
			symbolic.Const(int64(cfg.PackRows)*int64(cfg.WeightCols)*tile.ElemBytes),
			false))

	// Pack tile: concatenate the column tiles into [P, Out].
	colFn := ops.RetileColToFn(graph.StaticTile(cfg.PackRows, cfg.Out))
	full := ops.Accum(g, name+".retilecol", prod, 1, colFn, ops.ComputeOpts{})

	// Unpack tile: split into [1, Out] rows.
	rowsOut := ops.FlatMap(g, name+".unpack", full, 0, ops.RetileStreamifyFn(1),
		[]shape.Dim{shape.NamedRagged(name + ".rows")})

	// Drop padded rows: convert the pad flags into a keep/trash selector
	// and route rank-0 rows.
	padFlat := ops.Flatten(g, name+".padflatten", padFlags, 0, 1)
	keepSel := ops.Map(g, name+".padsel", padFlat, ops.FlagToSelectorFn(), ops.ComputeOpts{})
	kept := ops.Partition(g, name+".dropPad", rowsOut, keepSel, 0, 2)
	ops.Sink(g, name+".padSink", kept[1])

	// Rows back to [D, 1] so each row is a rank-1 subtree for Reassemble.
	return ops.RepeatElems(g, name+".rowgroups", kept[0], 1)
}

// Reference computes the expected output rows directly at the tensor
// level (Fig. 6), for functional validation.
func (m *SimpleMoE) Reference() *tile.Tile {
	out := tile.New(m.cfg.Rows, m.cfg.Out)
	for i := 0; i < m.cfg.Rows; i++ {
		row := m.input.Slice(i, i+1, 0, m.cfg.Hidden)
		y := tile.MatMul(row, m.weights[m.cfg.Routing[i]])
		for c := 0; c < m.cfg.Out; c++ {
			out.Set(i, c, y.At(0, c))
		}
	}
	return out
}

// OutputRows extracts the rows the run produced, in stream order.
func (m *SimpleMoE) OutputRows(sess *graph.Session) ([]*tile.Tile, error) {
	es, _ := sess.Captured(m.Output.Name())
	var rows []*tile.Tile
	for _, e := range es {
		if !e.IsData() {
			continue
		}
		tv, ok := e.Value.(element.TileVal)
		if !ok {
			return nil, fmt.Errorf("workloads: output carried %T", e.Value)
		}
		rows = append(rows, tv.T)
	}
	return rows, nil
}

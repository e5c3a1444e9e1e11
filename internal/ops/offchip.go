package ops

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

// OffChipTensor is a tensor resident in off-chip memory, viewed as a grid
// of tiles (Fig. 2: in_mem_shape carved into tile_shape tiles).
type OffChipTensor struct {
	Data               *tile.Tile
	TileRows, TileCols int
}

// NewOffChipTensor validates and wraps a backing tensor.
func NewOffChipTensor(data *tile.Tile, tileRows, tileCols int) (OffChipTensor, error) {
	if tileRows <= 0 || tileCols <= 0 {
		return OffChipTensor{}, fmt.Errorf("ops: non-positive tile shape %dx%d", tileRows, tileCols)
	}
	if data.Rows%tileRows != 0 || data.Cols%tileCols != 0 {
		return OffChipTensor{}, fmt.Errorf("ops: tensor %dx%d not divisible by tile %dx%d",
			data.Rows, data.Cols, tileRows, tileCols)
	}
	return OffChipTensor{Data: data, TileRows: tileRows, TileCols: tileCols}, nil
}

// GridRows returns the number of tile rows.
func (t OffChipTensor) GridRows() int { return t.Data.Rows / t.TileRows }

// GridCols returns the number of tile columns.
func (t OffChipTensor) GridCols() int { return t.Data.Cols / t.TileCols }

// TileBytes returns the byte size of one tile.
func (t OffChipTensor) TileBytes() int64 {
	return int64(t.TileRows) * int64(t.TileCols) * tile.ElemBytes
}

// TileAtLinear returns the tile at linear (row-major) grid index idx.
func (t OffChipTensor) TileAtLinear(idx int) (*tile.Tile, error) {
	n := t.GridRows() * t.GridCols()
	if idx < 0 || idx >= n {
		return nil, fmt.Errorf("ops: tile index %d out of grid of %d", idx, n)
	}
	r := idx / t.GridCols()
	c := idx % t.GridCols()
	return t.Data.Slice(r*t.TileRows, (r+1)*t.TileRows, c*t.TileCols, (c+1)*t.TileCols), nil
}

// linearLoadOp streams an affine tiled read of an off-chip tensor, once per
// reference-stream element (§3.2.1, Fig. 2).
type linearLoadOp struct {
	base
	tensor   OffChipTensor
	tensorAt func(seed uint64) OffChipTensor
	stride   [2]int
	outShape [2]int
}

// LinearOffChipLoad loads the tensor from off-chip memory as tiles,
// triggering one affine read (stride/outShape in tile units, over the
// row-major tile grid) per data element of the reference stream. The
// output stream gains two inner dimensions [outShape[0], outShape[1]] of
// tiles.
func LinearOffChipLoad(g *graph.Graph, name string, ref *graph.Stream, tensor OffChipTensor, stride, outShape [2]int) *graph.Stream {
	op := &linearLoadOp{base: newBase(name), tensor: tensor, stride: stride, outShape: outShape}
	if outShape[0] <= 0 || outShape[1] <= 0 {
		g.Errf("%s: non-positive out shape %v", name, outShape)
		outShape = [2]int{1, 1}
		op.outShape = outShape
	}
	if idx, out := affineOutOfRange(stride, outShape, tensor.GridRows()*tensor.GridCols()); out {
		g.Errf("%s: affine read reaches tile %d outside grid %dx%d",
			name, idx, tensor.GridRows(), tensor.GridCols())
	}
	n := g.AddNode(op, ref)
	linearLoadKind.set(n, linearLoadAttrs{Tensor: tensorAttr{t: tensor}, Stride: stride, OutShape: outShape})
	dims := make([]shape.Dim, 0, ref.Shape.Rank()+2)
	dims = append(dims, ref.Shape.Dims...)
	dims = append(dims, shape.Static(outShape[0]), shape.Static(outShape[1]))
	dt := graph.StaticTile(tensor.TileRows, tensor.TileCols)
	out := g.NewStream(n, shape.New(dims...), dt)
	// §4.2 equations.
	op.traffic = symCard(out)
	op.onchip = symbolic.Mul(dt.Bytes(), symbolic.Const(2))
	return out
}

// affineOutOfRange returns a corner of an affine read of outShape at
// stride that falls outside [0, n): the smallest index (a negative stride
// reaches below 0) or the largest.
func affineOutOfRange(stride, outShape [2]int, n int) (int, bool) {
	lo, hi := 0, 0
	for i := range stride {
		d := (outShape[i] - 1) * stride[i]
		lo, hi = lo+min(0, d), hi+max(0, d)
	}
	if lo < 0 {
		return lo, true
	}
	return hi, hi >= n
}

// LinearOffChipLoadStatic is the static-reference variant: the affine read
// repeats a compile-time-constant number of times.
//
//lint:allow registrycomplete composite convenience over CountSource+LinearOffChipLoad; its IR spelling is the count-source and linear-offchip-load nodes it expands to
func LinearOffChipLoadStatic(g *graph.Graph, name string, repeats int, tensor OffChipTensor, stride, outShape [2]int) *graph.Stream {
	ref := CountSource(g, name+".ref", repeats)
	return LinearOffChipLoad(g, name, ref, tensor, stride, outShape)
}

func (o *linearLoadOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	tensor := reseed(ctx, o.tensor, o.tensorAt)
	port := ctx.Machine.HBM.NewPort()
	w := newStopWriter(ctx, 0)
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: ref closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			w.flush()
			return nil
		case element.Stop:
			w.stop(e.Level + 2)
		default:
			for i := 0; i < o.outShape[0]; i++ {
				for j := 0; j < o.outShape[1]; j++ {
					idx := i*o.stride[0] + j*o.stride[1]
					tl, err := tensor.TileAtLinear(idx)
					if err != nil {
						return fmt.Errorf("%s: %w", o.name, err)
					}
					port.Read(ctx.P, tensor.TileBytes())
					w.data(element.DataOf(element.TileVal{T: tl}))
				}
				w.stop(1)
			}
			w.stop(2)
		}
	}
}

// linearStoreOp writes a tile stream to off-chip memory (§3.2.1).
type linearStoreOp struct{ base }

// LinearOffChipStore stores the input stream's tiles linearly to off-chip
// memory. The returned handle exposes a run's written tiles.
func LinearOffChipStore(g *graph.Graph, name string, in *graph.Stream) *StoreHandle {
	op := &linearStoreOp{base: newBase(name)}
	op.traffic = symCard(in)
	op.onchip = symbolic.Mul(in.DType.Bytes(), symbolic.Const(2))
	n := g.AddNode(op, in)
	linearStoreKind.set(n, noAttrs{})
	return &StoreHandle{node: n}
}

// StoreHandle exposes the tiles written by a LinearOffChipStore.
type StoreHandle struct{ node *graph.Node }

// Tiles returns the tiles the session's run stored, in write order.
func (h *StoreHandle) Tiles(sess *graph.Session) []*tile.Tile {
	ts, _ := sess.Recorded(h.node).([]*tile.Tile)
	return ts
}

func (o *linearStoreOp) Run(ctx *graph.Ctx) error {
	port := ctx.Machine.HBM.NewPort()
	var got []*tile.Tile
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			ctx.Record(got)
			return nil
		case element.Stop:
			// Structure is not persisted; the tensor layout is linear.
		default:
			tv, ok := e.Value.(element.TileVal)
			if !ok {
				return fmt.Errorf("%s: expected tile, got %T", o.name, e.Value)
			}
			port.Write(ctx.P, tv.Bytes())
			got = append(got, tv.T)
		}
	}
}

// randomLoadOp fetches tiles by index from a table of off-chip tensors
// (§3.2.1). The MoE configuration time-multiplexing optimization uses it
// to fetch the selected expert's weights dynamically (Fig. 11).
type randomLoadOp struct {
	base
	table   []*tile.Tile
	tableAt func(seed uint64) []*tile.Tile
}

// RandomOffChipLoad reads the tile table[addr] for every scalar address in
// the address stream; stop tokens pass through unchanged. All table
// entries must share one shape.
func RandomOffChipLoad(g *graph.Graph, name string, raddr *graph.Stream, table []*tile.Tile) *graph.Stream {
	op := &randomLoadOp{base: newBase(name), table: table}
	if len(table) == 0 {
		g.Errf("%s: empty tile table", name)
		table = []*tile.Tile{tile.New(1, 1)}
		op.table = table
	}
	r0, c0 := table[0].Rows, table[0].Cols
	for i, t := range table {
		if t.Rows != r0 || t.Cols != c0 {
			g.Errf("%s: table entry %d shape %dx%d != %dx%d", name, i, t.Rows, t.Cols, r0, c0)
		}
	}
	n := g.AddNode(op, raddr)
	randomLoadKind.set(n, randomLoadAttrs{Table: tilesAttr{ts: table}})
	dt := graph.StaticTile(r0, c0)
	out := g.NewStream(n, raddr.Shape.Clone(), dt)
	op.traffic = symCard(out)
	op.onchip = symbolic.Mul(dt.Bytes(), symbolic.Const(2))
	return out
}

func (o *randomLoadOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	table := reseed(ctx, o.table, o.tableAt)
	port := ctx.Machine.HBM.NewPort()
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: address stream closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			return nil
		case element.Stop:
			tick(ctx)
			ctx.Out[0].Send(ctx.P, e)
		default:
			sc, ok := e.Value.(element.Scalar)
			if !ok {
				return fmt.Errorf("%s: expected scalar address, got %T", o.name, e.Value)
			}
			if sc.V < 0 || int(sc.V) >= len(table) {
				return fmt.Errorf("%s: address %d out of table of %d", o.name, sc.V, len(table))
			}
			t := table[sc.V]
			port.Read(ctx.P, t.Bytes())
			ctx.Out[0].Send(ctx.P, element.DataOf(element.TileVal{T: t}))
		}
	}
}

// randomStoreOp writes tiles at scalar addresses (§3.2.1).
type randomStoreOp struct{ base }

// RandomOffChipStore writes each data tile of wdata at the corresponding
// scalar address of waddr, emitting an acknowledgment flag per write. The
// returned handle exposes a run's written region.
func RandomOffChipStore(g *graph.Graph, name string, waddr, wdata *graph.Stream) (*graph.Stream, *RandomStoreHandle) {
	op := &randomStoreOp{base: newBase(name)}
	op.traffic = symCard(wdata)
	op.onchip = symbolic.Mul(wdata.DType.Bytes(), symbolic.Const(2))
	n := g.AddNode(op, waddr, wdata)
	randomStoreKind.set(n, noAttrs{})
	ack := g.NewStream(n, waddr.Shape.Clone(), graph.FlagType{})
	return ack, &RandomStoreHandle{node: n}
}

// RandomStoreHandle exposes the tiles written by a RandomOffChipStore.
type RandomStoreHandle struct{ node *graph.Node }

// TileAt returns the tile the session's run last wrote at addr.
func (h *RandomStoreHandle) TileAt(sess *graph.Session, addr int64) (*tile.Tile, bool) {
	region, _ := sess.Recorded(h.node).(map[int64]*tile.Tile)
	t, ok := region[addr]
	return t, ok
}

func (o *randomStoreOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	port := ctx.Machine.HBM.NewPort()
	region := make(map[int64]*tile.Tile)
	ctx.Record(region)
	for {
		ea, okA := recvTracked(ctx, 0)
		ed, okB := recvTracked(ctx, 1)
		if !okA || !okB {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if ea.Kind != ed.Kind || (ea.Kind == element.Stop && ea.Level != ed.Level) {
			return fmt.Errorf("%s: misaligned address/data streams: %s vs %s", o.name, ea, ed)
		}
		switch ea.Kind {
		case element.Done:
			return nil
		case element.Stop:
			tick(ctx)
			ctx.Out[0].Send(ctx.P, ea)
		default:
			sc, ok := ea.Value.(element.Scalar)
			if !ok {
				return fmt.Errorf("%s: expected scalar address, got %T", o.name, ea.Value)
			}
			tv, ok := ed.Value.(element.TileVal)
			if !ok {
				return fmt.Errorf("%s: expected tile data, got %T", o.name, ed.Value)
			}
			port.Write(ctx.P, tv.Bytes())
			region[sc.V] = tv.T
			ctx.Out[0].Send(ctx.P, element.DataOf(element.Flag{B: true}))
		}
	}
}

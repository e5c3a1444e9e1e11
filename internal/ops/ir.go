package ops

import (
	"encoding/json"
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

// FnRef names a function from the library in fns.go inside the program
// IR. Arg carries the parameter of parameterized functions (scale
// factor, chunk sizes); it is zero for the rest.
type FnRef struct {
	Name string  `json:"name"`
	Arg  float64 `json:"arg,omitempty"`
}

// LookupMapFn resolves a Map function reference.
func LookupMapFn(ref FnRef) (MapFn, error) {
	switch ref.Name {
	case "matmul":
		return MatmulFn(), nil
	case "silu":
		return SiLUFn(), nil
	case "elemmul":
		return ElemMulFn(), nil
	case "softmax":
		return RowSoftmaxFn(), nil
	case "scale":
		return ScaleFn(float32(ref.Arg)), nil
	case "transpose":
		return TransposeFn(), nil
	}
	return MapFn{}, fmt.Errorf("ir: unknown map fn %q", ref.Name)
}

// LookupAccumFn resolves an Accum/Scan function reference.
func LookupAccumFn(ref FnRef) (AccumFn, error) {
	switch ref.Name {
	case "retile-row":
		return RetileRowFn(), nil
	case "retile-col":
		return RetileColFn(), nil
	case "elemadd":
		return ElemAddFn(), nil
	case "matmul-acc":
		return MatmulAccFn(), nil
	}
	return AccumFn{}, fmt.Errorf("ir: unknown accum fn %q", ref.Name)
}

// LookupFlatMapFn resolves a FlatMap function reference. The chunk
// argument must be a positive integer: tile.SplitRows/SplitCols panic
// on non-positive chunks at run time, so a hostile IR must fail here,
// at load, like the other decoder bounds.
func LookupFlatMapFn(ref FnRef) (FlatMapFn, error) {
	switch ref.Name {
	case "retile-streamify", "split-cols":
		chunk := int(ref.Arg)
		if ref.Arg != float64(chunk) || chunk < 1 {
			return FlatMapFn{}, fmt.Errorf("ir: flatmap fn %q needs a positive integer arg, got %v", ref.Name, ref.Arg)
		}
		if ref.Name == "retile-streamify" {
			return RetileStreamifyFn(chunk), nil
		}
		return SplitColsFn(chunk), nil
	}
	return FlatMapFn{}, fmt.Errorf("ir: unknown flatmap fn %q", ref.Name)
}

// computeOptsIR serializes ComputeOpts.
type computeOptsIR struct {
	ComputeBW       int64         `json:"compute_bw,omitempty"`
	MemIn           bool          `json:"mem_in,omitempty"`
	MemOut          bool          `json:"mem_out,omitempty"`
	MatMulOnchip    bool          `json:"matmul_onchip,omitempty"`
	InTileCols      *graph.ExprIR `json:"in_tile_cols,omitempty"`
	WeightTileBytes *graph.ExprIR `json:"weight_tile_bytes,omitempty"`
	OutTileBytes    *graph.ExprIR `json:"out_tile_bytes,omitempty"`
	IncludeOutInEq  bool          `json:"include_out,omitempty"`
}

func optsToIR(o ComputeOpts) computeOptsIR {
	return computeOptsIR{
		ComputeBW:       o.ComputeBW,
		MemIn:           o.MemIn,
		MemOut:          o.MemOut,
		MatMulOnchip:    o.MatMulOnchip,
		InTileCols:      graph.ExprToIR(o.InTileCols),
		WeightTileBytes: graph.ExprToIR(o.WeightTileBytes),
		OutTileBytes:    graph.ExprToIR(o.OutTileBytes),
		IncludeOutInEq:  o.IncludeOutInEq,
	}
}

func optsFromIR(ir computeOptsIR) (ComputeOpts, error) {
	inCols, err := graph.ExprFromIR(ir.InTileCols)
	if err != nil {
		return ComputeOpts{}, err
	}
	wBytes, err := graph.ExprFromIR(ir.WeightTileBytes)
	if err != nil {
		return ComputeOpts{}, err
	}
	oBytes, err := graph.ExprFromIR(ir.OutTileBytes)
	if err != nil {
		return ComputeOpts{}, err
	}
	return ComputeOpts{
		ComputeBW:       ir.ComputeBW,
		MemIn:           ir.MemIn,
		MemOut:          ir.MemOut,
		MatMulOnchip:    ir.MatMulOnchip,
		InTileCols:      inCols,
		WeightTileBytes: wBytes,
		OutTileBytes:    oBytes,
		IncludeOutInEq:  ir.IncludeOutInEq,
	}, nil
}

// tensorIR serializes an OffChipTensor.
type tensorIR struct {
	Tile     graph.TileIR `json:"tile"`
	TileRows int          `json:"tile_rows"`
	TileCols int          `json:"tile_cols"`
}

func tensorToIR(t OffChipTensor) (tensorIR, error) {
	ti, err := graph.TileToIR(t.Data)
	if err != nil {
		return tensorIR{}, err
	}
	return tensorIR{Tile: *ti, TileRows: t.TileRows, TileCols: t.TileCols}, nil
}

func (ir tensorIR) decode(env *graph.DecodeEnv) (OffChipTensor, error) {
	data, err := graph.TileFromIR(&ir.Tile, env)
	if err != nil {
		return OffChipTensor{}, err
	}
	return NewOffChipTensor(data, ir.TileRows, ir.TileCols)
}

// --- attribute schemas (one struct per op kind) ---

type sourceAttrs struct {
	Shape graph.ShapeIR     `json:"shape"`
	DType graph.DTypeIR     `json:"dtype"`
	Elems []graph.ElementIR `json:"elems"`
}

// sourceAttrsLazy defers the element-sequence conversion to encode
// time, so building a graph costs nothing when its IR is never asked
// for (workload builders construct thousands of sources per sweep).
type sourceAttrsLazy struct {
	sh    shape.Shape
	dt    graph.DType
	elems []element.Element
}

func (a sourceAttrsLazy) MarshalJSON() ([]byte, error) {
	elems, err := graph.ElemsToIR(a.elems)
	if err != nil {
		return nil, err
	}
	dt, err := graph.DTypeToIR(a.dt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sourceAttrs{Shape: *graph.ShapeToIR(a.sh), DType: *dt, Elems: elems})
}

// tilesLazy defers tile-table serialization to encode time.
type tilesLazy []*tile.Tile

func (ts tilesLazy) MarshalJSON() ([]byte, error) {
	out := make([]graph.TileIR, len(ts))
	for i, t := range ts {
		ti, err := graph.TileToIR(t)
		if err != nil {
			return nil, err
		}
		out[i] = *ti
	}
	return json.Marshal(out)
}

// tensorLazy defers off-chip tensor serialization to encode time.
type tensorLazy struct{ t OffChipTensor }

func (tl tensorLazy) MarshalJSON() ([]byte, error) {
	ir, err := tensorToIR(tl.t)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ir)
}

type countSourceAttrs struct {
	N int `json:"n"`
}

type broadcastAttrs struct {
	K int `json:"k"`
}

type takeAttrs struct {
	N int `json:"n"`
}

type relayAttrs struct {
	DType graph.DTypeIR `json:"dtype"`
	Shape graph.ShapeIR `json:"shape"`
}

type linearLoadAttrs struct {
	Tensor   tensorIR `json:"tensor"`
	Stride   [2]int   `json:"stride"`
	OutShape [2]int   `json:"out_shape"`
}

// linearLoadAttrsEnc is the encode-side twin of linearLoadAttrs with a
// lazily-serialized tensor.
type linearLoadAttrsEnc struct {
	Tensor   tensorLazy `json:"tensor"`
	Stride   [2]int     `json:"stride"`
	OutShape [2]int     `json:"out_shape"`
}

type randomLoadAttrs struct {
	Table []graph.TileIR `json:"table"`
}

// randomLoadAttrsEnc is the encode-side twin of randomLoadAttrs.
type randomLoadAttrsEnc struct {
	Table tilesLazy `json:"table"`
}

type bufferizeAttrs struct {
	B int `json:"b"`
}

type streamifyAttrs struct {
	Stride   *[2]int `json:"stride,omitempty"`
	OutShape *[2]int `json:"out_shape,omitempty"`
}

type partitionAttrs struct {
	R   int `json:"r"`
	Num int `json:"num"`
}

type reassembleAttrs struct {
	A int `json:"a"`
}

type mapAttrs struct {
	Fn   FnRef         `json:"fn"`
	Opts computeOptsIR `json:"opts"`
}

type accumAttrs struct {
	B    int           `json:"b"`
	Fn   FnRef         `json:"fn"`
	Opts computeOptsIR `json:"opts"`
}

type flatMapAttrs struct {
	B         int           `json:"b"`
	Fn        FnRef         `json:"fn"`
	InnerDims []graph.DimIR `json:"inner_dims"`
}

type flattenAttrs struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

type reshapeAttrs struct {
	Rank  int            `json:"rank"`
	Chunk int            `json:"chunk"`
	Pad   *graph.ValueIR `json:"pad,omitempty"`
}

type expandAttrs struct {
	Rank int `json:"rank"`
}

type repeatAttrs struct {
	Count int `json:"count"`
}

// --- decoders ---

// boundRank rejects rank-like attributes outside [0, 32]: stream ranks
// are tiny in practice, several constructors size allocations by them
// (FlatMap, Partition, Reassemble), and the builders' Errf diagnostics
// only fire after those allocations — a hostile IR must fail before.
func boundRank(node, field string, v int) error {
	if v < 0 || v > graph.MaxIRRank {
		return fmt.Errorf("ir: node %q: %s %d out of [0, %d]", node, field, v, graph.MaxIRRank)
	}
	return nil
}

func init() {
	reg := graph.RegisterIROp

	reg("source", func(dc *graph.DecodeCtx) error {
		var a sourceAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		sh, err := graph.ShapeFromIR(&a.Shape)
		if err != nil {
			return err
		}
		dt, err := graph.DTypeFromIR(&a.DType)
		if err != nil {
			return err
		}
		elems, at, err := graph.Seeded(dc.Env, func(env *graph.DecodeEnv) ([]element.Element, error) {
			return graph.ElemsFromIR(a.Elems, env)
		})
		if err != nil {
			return err
		}
		out := Source(dc.G, dc.Node.Name, sh, dt, elems)
		out.Producer().Op.(*sourceOp).elemsAt = at
		return dc.BindOutputs(out)
	})

	reg("count-source", func(dc *graph.DecodeCtx) error {
		var a countSourceAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		// The count materializes N elements; bound hostile IRs.
		if a.N < 0 || a.N > graph.MaxIRCount {
			return fmt.Errorf("ir: count-source %q: n %d out of [0, %d]", dc.Node.Name, a.N, graph.MaxIRCount)
		}
		return dc.BindOutputs(CountSource(dc.G, dc.Node.Name, a.N))
	})

	reg("capture", func(dc *graph.DecodeCtx) error {
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		Capture(dc.G, dc.Node.Name, in)
		return dc.BindOutputs()
	})

	reg("sink", func(dc *graph.DecodeCtx) error {
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		Sink(dc.G, dc.Node.Name, in)
		return dc.BindOutputs()
	})

	reg("broadcast", func(dc *graph.DecodeCtx) error {
		var a broadcastAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		// K materializes K streams; bound hostile IRs. The declared
		// output count must match anyway, which bounds it transitively,
		// but fail early with a clear message.
		if a.K < 1 || a.K > graph.MaxIRFanout {
			return fmt.Errorf("ir: broadcast %q: k %d out of [1, %d]", dc.Node.Name, a.K, graph.MaxIRFanout)
		}
		return dc.BindOutputs(Broadcast(dc.G, dc.Node.Name, in, a.K)...)
	})

	reg("take", func(dc *graph.DecodeCtx) error {
		var a takeAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Take(dc.G, dc.Node.Name, in, a.N))
	})

	reg("relay", func(dc *graph.DecodeCtx) error {
		var a relayAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		dt, err := graph.DTypeFromIR(&a.DType)
		if err != nil {
			return err
		}
		sh, err := graph.ShapeFromIR(&a.Shape)
		if err != nil {
			return err
		}
		h, out := Relay(dc.G, dc.Node.Name, dt, sh)
		if err := dc.BindOutputs(out); err != nil {
			return err
		}
		if dc.NIn() != 1 {
			return fmt.Errorf("ir: relay %q needs exactly one (possibly forward) input, got %d", dc.Node.Name, dc.NIn())
		}
		dc.Defer(func() error {
			in, err := dc.In(0)
			if err != nil {
				return err
			}
			RelayFeed(dc.G, h, in)
			return nil
		})
		return nil
	})

	reg("linear-offchip-load", func(dc *graph.DecodeCtx) error {
		var a linearLoadAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		ref, err := dc.In(0)
		if err != nil {
			return err
		}
		tensor, at, err := graph.Seeded(dc.Env, a.Tensor.decode)
		if err != nil {
			return fmt.Errorf("ir: node %q: %w", dc.Node.Name, err)
		}
		out := LinearOffChipLoad(dc.G, dc.Node.Name, ref, tensor, a.Stride, a.OutShape)
		out.Producer().Op.(*linearLoadOp).tensorAt = at
		return dc.BindOutputs(out)
	})

	reg("linear-offchip-store", func(dc *graph.DecodeCtx) error {
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		LinearOffChipStore(dc.G, dc.Node.Name, in)
		return dc.BindOutputs()
	})

	reg("random-offchip-load", func(dc *graph.DecodeCtx) error {
		var a randomLoadAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		raddr, err := dc.In(0)
		if err != nil {
			return err
		}
		table, at, err := graph.Seeded(dc.Env, func(env *graph.DecodeEnv) ([]*tile.Tile, error) {
			table := make([]*tile.Tile, len(a.Table))
			for i := range a.Table {
				t, err := graph.TileFromIR(&a.Table[i], env)
				if err != nil {
					return nil, fmt.Errorf("ir: node %q table[%d]: %w", dc.Node.Name, i, err)
				}
				table[i] = t
			}
			return table, nil
		})
		if err != nil {
			return err
		}
		out := RandomOffChipLoad(dc.G, dc.Node.Name, raddr, table)
		out.Producer().Op.(*randomLoadOp).tableAt = at
		return dc.BindOutputs(out)
	})

	reg("random-offchip-store", func(dc *graph.DecodeCtx) error {
		waddr, err := dc.In(0)
		if err != nil {
			return err
		}
		wdata, err := dc.In(1)
		if err != nil {
			return err
		}
		ack, _ := RandomOffChipStore(dc.G, dc.Node.Name, waddr, wdata)
		return dc.BindOutputs(ack)
	})

	reg("bufferize", func(dc *graph.DecodeCtx) error {
		var a bufferizeAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Bufferize(dc.G, dc.Node.Name, in, a.B))
	})

	reg("streamify", func(dc *graph.DecodeCtx) error {
		var a streamifyAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		bufs, err := dc.In(0)
		if err != nil {
			return err
		}
		ref, err := dc.In(1)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Streamify(dc.G, dc.Node.Name, bufs, ref, a.Stride, a.OutShape))
	})

	reg("streamify-linear", func(dc *graph.DecodeCtx) error {
		bufs, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(StreamifyLinear(dc.G, dc.Node.Name, bufs))
	})

	reg("partition", func(dc *graph.DecodeCtx) error {
		var a partitionAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		sel, err := dc.In(1)
		if err != nil {
			return err
		}
		if a.Num < 1 || a.Num > graph.MaxIRFanout {
			return fmt.Errorf("ir: partition %q: num %d out of [1, %d]", dc.Node.Name, a.Num, graph.MaxIRFanout)
		}
		if err := boundRank(dc.Node.Name, "r", a.R); err != nil {
			return err
		}
		return dc.BindOutputs(Partition(dc.G, dc.Node.Name, in, sel, a.R, a.Num)...)
	})

	reg("reassemble", func(dc *graph.DecodeCtx) error {
		var a reassembleAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		ins, err := dc.Inputs()
		if err != nil {
			return err
		}
		if len(ins) < 2 {
			return fmt.Errorf("ir: reassemble %q needs at least one input plus a selector", dc.Node.Name)
		}
		if err := boundRank(dc.Node.Name, "a", a.A); err != nil {
			return err
		}
		out := Reassemble(dc.G, dc.Node.Name, ins[:len(ins)-1], ins[len(ins)-1], a.A)
		return dc.BindOutputs(out)
	})

	reg("eager-merge", func(dc *graph.DecodeCtx) error {
		ins, err := dc.Inputs()
		if err != nil {
			return err
		}
		data, sel := EagerMerge(dc.G, dc.Node.Name, ins)
		return dc.BindOutputs(data, sel)
	})

	reg("map", func(dc *graph.DecodeCtx) error {
		var a mapAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		fn, err := LookupMapFn(a.Fn)
		if err != nil {
			return err
		}
		opts, err := optsFromIR(a.Opts)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Map(dc.G, dc.Node.Name, in, fn, opts))
	})

	reg("accum", func(dc *graph.DecodeCtx) error {
		var a accumAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		fn, err := LookupAccumFn(a.Fn)
		if err != nil {
			return err
		}
		opts, err := optsFromIR(a.Opts)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Accum(dc.G, dc.Node.Name, in, a.B, fn, opts))
	})

	reg("scan", func(dc *graph.DecodeCtx) error {
		var a accumAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		fn, err := LookupAccumFn(a.Fn)
		if err != nil {
			return err
		}
		opts, err := optsFromIR(a.Opts)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Scan(dc.G, dc.Node.Name, in, a.B, fn, opts))
	})

	reg("flatmap", func(dc *graph.DecodeCtx) error {
		var a flatMapAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		if err := boundRank(dc.Node.Name, "b", a.B); err != nil {
			return err
		}
		fn, err := LookupFlatMapFn(a.Fn)
		if err != nil {
			return err
		}
		dims, err := graph.DimsFromIR(a.InnerDims)
		if err != nil {
			return err
		}
		return dc.BindOutputs(FlatMap(dc.G, dc.Node.Name, in, a.B, fn, dims))
	})

	reg("flatten", func(dc *graph.DecodeCtx) error {
		var a flattenAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Flatten(dc.G, dc.Node.Name, in, a.Min, a.Max))
	})

	reg("reshape", func(dc *graph.DecodeCtx) error {
		var a reshapeAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		pad, at, err := graph.Seeded(dc.Env, func(env *graph.DecodeEnv) (element.Value, error) {
			if a.Pad == nil {
				return nil, nil
			}
			return graph.ValueFromIR(a.Pad, env)
		})
		if err != nil {
			return err
		}
		data, padding := Reshape(dc.G, dc.Node.Name, in, a.Rank, a.Chunk, pad)
		data.Producer().Op.(*reshapeOp).padAt = at
		return dc.BindOutputs(data, padding)
	})

	reg("promote", func(dc *graph.DecodeCtx) error {
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Promote(dc.G, dc.Node.Name, in))
	})

	reg("expand", func(dc *graph.DecodeCtx) error {
		var a expandAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		ref, err := dc.In(1)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Expand(dc.G, dc.Node.Name, in, ref, a.Rank))
	})

	reg("zip", func(dc *graph.DecodeCtx) error {
		a, err := dc.In(0)
		if err != nil {
			return err
		}
		b, err := dc.In(1)
		if err != nil {
			return err
		}
		return dc.BindOutputs(Zip(dc.G, dc.Node.Name, a, b))
	})

	reg("repeat-elems", func(dc *graph.DecodeCtx) error {
		var a repeatAttrs
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		in, err := dc.In(0)
		if err != nil {
			return err
		}
		return dc.BindOutputs(RepeatElems(dc.G, dc.Node.Name, in, a.Count))
	})
}

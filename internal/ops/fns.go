package ops

import (
	"encoding/json"
	"fmt"
	"math"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

// asTile extracts a tile value.
func asTile(v element.Value) (*tile.Tile, error) {
	tv, ok := v.(element.TileVal)
	if !ok {
		return nil, fmt.Errorf("expected tile value, got %T", v)
	}
	return tv.T, nil
}

// asTilePair extracts a tuple of tiles.
func asTilePair(v element.Value) (*tile.Tile, *tile.Tile, error) {
	tp, ok := v.(element.Tuple)
	if !ok {
		return nil, nil, fmt.Errorf("expected tuple value, got %T", v)
	}
	a, err := asTile(tp.A)
	if err != nil {
		return nil, nil, err
	}
	b, err := asTile(tp.B)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// none is the argument of a parameterless library function.
type none struct{}

// outType is the argument of retile-row and retile-col: the data type of
// the retiled output, or nil to keep the input's.
type outType struct{ graph.DType }

func (o outType) MarshalJSON() ([]byte, error) {
	dt, err := graph.DTypeToIR(o.DType)
	if err != nil {
		return nil, err
	}
	return json.Marshal(dt)
}

func (o *outType) UnmarshalJSON(b []byte) error {
	var ir graph.DTypeIR
	if err := strictUnmarshal(b, &ir); err != nil {
		return err
	}
	dt, err := graph.DTypeFromIR(&ir)
	o.DType = dt
	return err
}

// fn is the OutType function o declares (nil keeps the input's type).
func (o outType) fn() func(graph.DType) graph.DType {
	if o.DType == nil {
		return nil
	}
	return func(graph.DType) graph.DType { return o.DType }
}

// inRange returns a check rejecting arguments outside [lo, hi].
func inRange[N int | int64](what string, lo, hi N) func(N) error {
	return func(v N) error {
		if v < lo || v > hi {
			return fmt.Errorf("%s %d out of [%d, %d]", what, v, lo, hi)
		}
		return nil
	}
}

// MatmulFn multiplies the tuple's tiles: (A, B) → A × B.
func MatmulFn() MapFn { return matmulFn(none{}) }

var matmulFn = registerFn("matmul", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			a, b, err := asTilePair(v)
			if err != nil {
				return nil, 0, err
			}
			if a.Cols != b.Rows {
				return nil, 0, fmt.Errorf("matmul: %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
			}
			return element.TileVal{T: tile.MatMul(a, b)}, tile.MatMulFLOPs(a, b), nil
		},
		OutType: matmulOutType,
	}
})

// matmulOutType types A × B for a tuple of tile types (A, B).
func matmulOutType(in graph.DType) graph.DType {
	tt, ok := in.(graph.TupleType)
	if !ok {
		return in
	}
	at, okA := tt.A.(graph.TileType)
	bt, okB := tt.B.(graph.TileType)
	if !okA || !okB {
		return in
	}
	return graph.TileType{Rows: at.Rows, Cols: bt.Cols}
}

// MatmulATBFn multiplies the tuple's tiles with the first transposed:
// (A, B) → Aᵀ × B (the hierarchical-tiling matmul of Fig. 18).
func MatmulATBFn() MapFn { return matmulATBFn(none{}) }

var matmulATBFn = registerFn("matmul-atb", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			tp, ok := v.(element.Tuple)
			if !ok {
				return nil, 0, fmt.Errorf("matmul-atb: expected tuple, got %T", v)
			}
			av, okA := tp.A.(element.TileVal)
			bv, okB := tp.B.(element.TileVal)
			if !okA || !okB {
				return nil, 0, fmt.Errorf("matmul-atb: expected tile operands")
			}
			at := av.T.Transpose()
			return element.TileVal{T: tile.MatMul(at, bv.T)}, tile.MatMulFLOPs(at, bv.T), nil
		},
		OutType: func(in graph.DType) graph.DType {
			tt, ok := in.(graph.TupleType)
			if !ok {
				return in
			}
			a, okA := tt.A.(graph.TileType)
			b, okB := tt.B.(graph.TileType)
			if !okA || !okB {
				return in
			}
			return graph.TileType{Rows: a.Cols, Cols: b.Cols}
		},
	}
})

// SiLUFn applies x·sigmoid(x) element-wise (2 FLOPs modeled per element).
func SiLUFn() MapFn { return siluFn(none{}) }

var siluFn = registerFn("silu", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.SiLU(t)}, 2 * int64(t.Elems()), nil
		},
	}
})

// ElemMulFn multiplies the tuple's tiles element-wise (SwiGLU gating).
func ElemMulFn() MapFn { return elemMulFn(none{}) }

var elemMulFn = registerFn("elemmul", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			a, b, err := asTilePair(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.Mul(a, b)}, int64(a.Elems()), nil
		},
		OutType: tupleFirstTile,
	}
})

// RowSoftmaxFn applies a row-wise softmax (5 FLOPs modeled per element).
func RowSoftmaxFn() MapFn { return softmaxFn(none{}) }

var softmaxFn = registerFn("softmax", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.RowSoftmax(t)}, 5 * int64(t.Elems()), nil
		},
	}
})

// ScaleFn multiplies all elements by a constant (1 FLOP per element).
func ScaleFn(s float32) MapFn { return scaleFn(float64(s)) }

var scaleFn = registerFn("scale", nil, func(arg float64) MapFn {
	s := float32(arg)
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.Scale(t, s)}, int64(t.Elems()), nil
		},
	}
})

// TransposeFn transposes each tile (pure data movement).
func TransposeFn() MapFn { return transposeFn(none{}) }

var transposeFn = registerFn("transpose", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: t.Transpose()}, 0, nil
		},
		OutType: func(in graph.DType) graph.DType {
			tt, ok := in.(graph.TileType)
			if !ok {
				return in
			}
			return graph.TileType{Rows: tt.Cols, Cols: tt.Rows}
		},
	}
})

// QKVFn models the per-request QKV projection of the decoder (Fig. 17):
// the value passes through and each element costs flops FLOPs.
func QKVFn(flops int64) MapFn { return qkvFn(flops) }

var qkvFn = registerFn("qkv", inRange[int64]("flops", 0, math.MaxInt64), func(qkvFlops int64) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			return v, qkvFlops, nil
		},
	}
})

// attnChunkArg is the argument of attn-chunk.
type attnChunkArg struct {
	OutWidth int   `json:"out_width"`
	FLOPs    int64 `json:"flops"`
}

// AttnChunkFn models one KV chunk of decode attention (q·Kᵀ, softmax
// fragment, ·V): each chunk yields a shape-only [1, outWidth] partial
// output row and costs flopsPerChunk FLOPs.
func AttnChunkFn(outWidth int, flopsPerChunk int64) MapFn {
	return attnChunkFn(attnChunkArg{OutWidth: outWidth, FLOPs: flopsPerChunk})
}

var attnChunkFn = registerFn("attn-chunk", func(a attnChunkArg) error {
	if a.OutWidth < 1 {
		return fmt.Errorf("out_width %d < 1", a.OutWidth)
	}
	return inRange[int64]("flops", 0, math.MaxInt64)(a.FLOPs)
}, func(a attnChunkArg) MapFn {
	outWidth, flopsPerChunk := a.OutWidth, a.FLOPs
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			return element.TileVal{T: tile.ShapeOnly(1, outWidth)}, flopsPerChunk, nil
		},
		OutType: func(graph.DType) graph.DType { return graph.StaticTile(1, outWidth) },
	}
})

// FlagToSelectorFn converts a padding flag into a route: real rows go to
// output 0, padded rows to output 1.
func FlagToSelectorFn() MapFn { return flagToSelectorFn(none{}) }

var flagToSelectorFn = registerFn("flag-to-selector", nil, func(none) MapFn {
	return MapFn{
		Apply: func(v element.Value) (element.Value, int64, error) {
			f, ok := v.(element.Flag)
			if !ok {
				return nil, 0, fmt.Errorf("expected flag, got %T", v)
			}
			if f.B {
				return routePadded, 0, nil
			}
			return routeReal, 0, nil
		},
		OutType: func(graph.DType) graph.DType { return graph.SelectorType{N: 2} },
	}
})

// The two routes flag-to-selector emits, boxed once: the per-element path
// then allocates nothing. Selectors are never written after construction.
var (
	routeReal   element.Value = element.NewSelector(2, 0)
	routePadded element.Value = element.NewSelector(2, 1)
)

func tupleFirstTile(in graph.DType) graph.DType {
	if tt, ok := in.(graph.TupleType); ok {
		return tt.A
	}
	return in
}

// emptyTile is the zero accumulator for retile functions.
func emptyTile() element.Value { return element.TileVal{T: tile.New(0, 0)} }

// RetileRowFn concatenates tiles row-wise into a growing accumulator
// (packing row tiles into a larger tile, Fig. 7 "Pack to Tile"). The
// output keeps the input's data type; RetileRowToFn declares it.
func RetileRowFn() AccumFn { return retileRowFn(outType{}) }

// RetileRowToFn is RetileRowFn with out as the packed tile's type.
func RetileRowToFn(out graph.TileType) AccumFn { return retileRowFn(outType{out}) }

var retileRowFn = registerFn("retile-row", nil, func(a outType) AccumFn {
	return AccumFn{
		Init: emptyTile,
		Update: func(state, v element.Value) (element.Value, int64, error) {
			s, err := asTile(state)
			if err != nil {
				return nil, 0, err
			}
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.ConcatRows(s, t)}, 0, nil
		},
		OutType: a.fn(),
	}
})

// RetileColFn concatenates tiles column-wise (Fig. 7 "Pack Tile" before the
// merge). The output keeps the input's data type; RetileColToFn declares
// it.
func RetileColFn() AccumFn { return retileColFn(outType{}) }

// RetileColToFn is RetileColFn with out as the packed tile's type.
func RetileColToFn(out graph.TileType) AccumFn { return retileColFn(outType{out}) }

var retileColFn = registerFn("retile-col", nil, func(a outType) AccumFn {
	return AccumFn{
		Init: emptyTile,
		Update: func(state, v element.Value) (element.Value, int64, error) {
			s, err := asTile(state)
			if err != nil {
				return nil, 0, err
			}
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			return element.TileVal{T: tile.ConcatCols(s, t)}, 0, nil
		},
		OutType: a.fn(),
	}
})

// ElemAddFn accumulates tiles element-wise (reduction in inner-product
// matmul and in the hierarchical tiling transform of Fig. 18).
func ElemAddFn() AccumFn { return elemAddFn(none{}) }

var elemAddFn = registerFn("elemadd", nil, func(none) AccumFn {
	return AccumFn{
		Init: func() element.Value { return element.TileVal{T: nil} },
		Update: func(state, v element.Value) (element.Value, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			sv := state.(element.TileVal)
			if sv.T == nil {
				return element.TileVal{T: t.Clone()}, 0, nil
			}
			if sv.T.Rows != t.Rows || sv.T.Cols != t.Cols {
				return nil, 0, fmt.Errorf("elemadd: shape mismatch %s vs %s", sv.T, t)
			}
			out := sv.T.Clone()
			tile.AddInto(out, t)
			return element.TileVal{T: out}, int64(t.Elems()), nil
		},
	}
})

// MatmulAccFn is a fused multiply-accumulate for inner-product matmul:
// state += A × B for tuple inputs (A, B).
func MatmulAccFn() AccumFn { return matmulAccFn(none{}) }

var matmulAccFn = registerFn("matmul-acc", nil, func(none) AccumFn {
	return AccumFn{
		Init: func() element.Value { return element.TileVal{T: nil} },
		Update: func(state, v element.Value) (element.Value, int64, error) {
			a, b, err := asTilePair(v)
			if err != nil {
				return nil, 0, err
			}
			prod := tile.MatMul(a, b)
			flops := tile.MatMulFLOPs(a, b)
			sv := state.(element.TileVal)
			if sv.T == nil {
				return element.TileVal{T: prod}, flops, nil
			}
			tile.AddInto(prod, sv.T)
			return element.TileVal{T: prod}, flops + int64(prod.Elems()), nil
		},
		OutType: matmulOutType,
	}
})

// RetileStreamifyFn splits each tile row-wise into chunks of rowChunk rows,
// emitted as a rank-0 fragment (Fig. 7 "Unpack Tile"). A non-positive
// chunk would panic in tile.SplitRows at run time, so an IR fails at load.
func RetileStreamifyFn(rowChunk int) FlatMapFn { return retileStreamifyFn(rowChunk) }

var retileStreamifyFn = registerFn("retile-streamify", inRange("chunk", 1, math.MaxInt), func(rowChunk int) FlatMapFn {
	return FlatMapFn{
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			parts := t.SplitRows(rowChunk)
			out := make([]element.Element, 0, len(parts))
			for _, p := range parts {
				out = append(out, element.DataOf(element.TileVal{T: p}))
			}
			return out, 0, nil
		},
		OutType: func(in graph.DType) graph.DType {
			tt, ok := in.(graph.TileType)
			if !ok {
				return in
			}
			return graph.TileType{Rows: shape.Static(rowChunk), Cols: tt.Cols}
		},
	}
})

// SplitColsFn splits each tile column-wise into chunks (hierarchical
// tiling, Fig. 18).
func SplitColsFn(colChunk int) FlatMapFn { return splitColsFn(colChunk) }

var splitColsFn = registerFn("split-cols", inRange("chunk", 1, math.MaxInt), func(colChunk int) FlatMapFn {
	return FlatMapFn{
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			t, err := asTile(v)
			if err != nil {
				return nil, 0, err
			}
			parts := t.SplitCols(colChunk)
			out := make([]element.Element, 0, len(parts))
			for _, p := range parts {
				out = append(out, element.DataOf(element.TileVal{T: p}))
			}
			return out, 0, nil
		},
		OutType: func(in graph.DType) graph.DType {
			tt, ok := in.(graph.TileType)
			if !ok {
				return in
			}
			return graph.TileType{Rows: tt.Rows, Cols: shape.Static(colChunk)}
		},
	}
})

// kvChunksArg is the argument of kv-chunks.
type kvChunksArg struct {
	Chunk  int   `json:"chunk"`
	KVLens []int `json:"kv_lens"`
}

// KVChunksFn expands a decode request (its index as a scalar) into one
// address per chunk of chunk KV rows, ceil(kvLens[i]/chunk) for request
// i, as a rank-1 fragment.
func KVChunksFn(chunk int, kvLens []int) FlatMapFn {
	return kvChunksFn(kvChunksArg{Chunk: chunk, KVLens: kvLens})
}

var kvChunksFn = registerFn("kv-chunks", func(a kvChunksArg) error {
	if a.Chunk < 1 {
		return fmt.Errorf("chunk %d < 1", a.Chunk)
	}
	if len(a.KVLens) > graph.MaxIRCount {
		return fmt.Errorf("kv_lens has %d entries, more than %d", len(a.KVLens), graph.MaxIRCount)
	}
	// Each request materializes its chunk addresses as one fragment.
	for i, n := range a.KVLens {
		if n < 0 || n > 0 && (n-1)/a.Chunk >= graph.MaxIRCount {
			return fmt.Errorf("kv_lens[%d] = %d out of [0, %d chunks]", i, n, graph.MaxIRCount)
		}
	}
	return nil
}, func(a kvChunksArg) FlatMapFn {
	kvLens, chunk := a.KVLens, a.Chunk
	return FlatMapFn{
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			sc, ok := v.(element.Scalar)
			if !ok {
				return nil, 0, fmt.Errorf("kv-chunks: expected request scalar, got %T", v)
			}
			if sc.V < 0 || int(sc.V) >= len(kvLens) {
				return nil, 0, fmt.Errorf("kv-chunks: request %d out of range", sc.V)
			}
			n := (kvLens[sc.V] + chunk - 1) / chunk
			out := make([]element.Element, 0, n+1)
			for j := 0; j < n; j++ {
				out = append(out, element.DataOf(element.Scalar{V: 0}))
			}
			out = append(out, element.StopOf(1))
			return out, 0, nil
		},
	}
})

// StripAddrsFn expands a single-hot region-local selector into the
// weight-table addresses of the selected expert's nStrips strips, as a
// rank-1 fragment (time-multiplexed MoE, Fig. 11).
func StripAddrsFn(nStrips int) FlatMapFn { return stripAddrsFn(nStrips) }

var stripAddrsFn = registerFn("strip-addrs", inRange("strips", 1, graph.MaxIRCount), func(nStrips int) FlatMapFn {
	return FlatMapFn{
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			sel, ok := v.(element.Selector)
			if !ok || len(sel.Indices) != 1 {
				return nil, 0, fmt.Errorf("strip-addrs: expected single-hot selector, got %v", v)
			}
			local := sel.Indices[0]
			out := make([]element.Element, 0, nStrips+1)
			for j := 0; j < nStrips; j++ {
				out = append(out, element.DataOf(element.Scalar{V: int64(local*nStrips + j)}))
			}
			out = append(out, element.StopOf(1))
			return out, 0, nil
		},
		OutType: func(graph.DType) graph.DType { return graph.ScalarType{} },
	}
})

// MatmulOpts builds the ComputeOpts for a matmul Map/Accum with the §4.2
// on-chip equation parameters.
func MatmulOpts(computeBW int64, inTileCols, weightTileBytes, outTileBytes symbolic.Expr, includeOut bool) ComputeOpts {
	return ComputeOpts{
		ComputeBW:       computeBW,
		MemIn:           true,
		MatMulOnchip:    true,
		InTileCols:      inTileCols,
		WeightTileBytes: weightTileBytes,
		OutTileBytes:    outTileBytes,
		IncludeOutInEq:  includeOut,
	}
}

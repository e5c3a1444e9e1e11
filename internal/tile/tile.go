// Package tile implements the dense two-dimensional tiles that flow through
// STeP streams (paper §3.1: "a tile is a two-dimensional regular matrix"
// whose shape may be dynamically defined), together with the arithmetic
// functions supplied to higher-order operators (matmul, SwiGLU pieces,
// retiling) and their FLOP accounting.
//
// Values are held as float32; byte accounting uses a configurable element
// width so the simulator can model BF16 (2 bytes) as the paper does.
//
// Shape-only tiles (see ShapeOnly) are immutable: ShapeOnly shares one
// tile per shape across the process, so nothing may write to one.
package tile

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ElemBytes is the modeled element width in bytes. The paper's hardware
// model uses BFloat16 tiles.
const ElemBytes = 2

// Tile is a dense Rows×Cols matrix. The zero value is an empty 0×0 tile.
type Tile struct {
	Rows, Cols int
	Data       []float32 // row-major, len == Rows*Cols
}

// New allocates a zeroed tile.
func New(rows, cols int) *Tile {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tile: negative shape %dx%d", rows, cols))
	}
	return &Tile{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ShapeOnly returns a tile that carries extents but no element storage.
// The simulator's timing, byte, and FLOP accounting are exact for
// shape-only tiles, while the arithmetic functions skip element math —
// this keeps large timing-mode experiments (e.g. batch-1024 MoE sweeps)
// tractable. Any operation touching a shape-only operand yields a
// shape-only result. The tile is shared with every other caller asking
// for the same shape, so it must never be written.
func ShapeOnly(rows, cols int) *Tile {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tile: negative shape %dx%d", rows, cols))
	}
	h := (uint64(rows)<<32 ^ uint64(cols)) * 0x9E3779B97F4A7C15
	slot := &shapeOnlyTiles[h>>(64-shapeOnlyBits)]
	if t := slot.Load(); t != nil && t.Rows == rows && t.Cols == cols {
		return t
	}
	t := &Tile{Rows: rows, Cols: cols}
	slot.CompareAndSwap(nil, t)
	return t
}

// shapeOnlyTiles interns shape-only tiles by shape: a fixed table of
// slots, each filled once by the first shape hashed to it. A shape whose
// slot holds another gets a fresh tile, so the table never grows.
//
//lint:allow determinism shape-only tiles are immutable, so a hit equals a fresh allocation
var shapeOnlyTiles [1 << shapeOnlyBits]atomic.Pointer[Tile]

const shapeOnlyBits = 12

// IsShapeOnly reports whether the tile carries no element storage.
func (t *Tile) IsShapeOnly() bool { return t.Data == nil && t.Rows*t.Cols > 0 }

// FromRows builds a tile from row slices; all rows must have equal length.
func FromRows(rows [][]float32) *Tile {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	t := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tile: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(t.Data[i*cols:(i+1)*cols], r)
	}
	return t
}

// Filled returns a rows×cols tile with every element set to v.
func Filled(rows, cols int, v float32) *Tile {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// At returns element (r, c).
func (t *Tile) At(r, c int) float32 {
	return t.Data[r*t.Cols+c]
}

// Set assigns element (r, c).
func (t *Tile) Set(r, c int, v float32) {
	t.Data[r*t.Cols+c] = v
}

// Bytes returns the modeled memory footprint of the tile.
func (t *Tile) Bytes() int64 {
	return int64(t.Rows) * int64(t.Cols) * ElemBytes
}

// Elems returns the element count.
func (t *Tile) Elems() int { return t.Rows * t.Cols }

// Clone deep-copies the tile. A shape-only tile is immutable, so it is
// its own clone.
func (t *Tile) Clone() *Tile {
	if t.IsShapeOnly() {
		return t
	}
	out := New(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// String summarizes the tile shape (not contents).
func (t *Tile) String() string {
	return fmt.Sprintf("Tile[%dx%d]", t.Rows, t.Cols)
}

// Equal reports element-wise equality within eps.
func Equal(a, b *Tile, eps float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// MatMul computes a × b. a is m×k, b is k×n; the result is m×n.
func MatMul(a, b *Tile) *Tile {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tile: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.IsShapeOnly() || b.IsShapeOnly() {
		return ShapeOnly(a.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulFLOPs returns the modeled FLOP count of a × b (2·m·k·n, the
// standard multiply-add convention).
func MatMulFLOPs(a, b *Tile) int64 {
	return 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
}

// Add returns a + b element-wise.
func Add(a, b *Tile) *Tile {
	mustSameShape("add", a, b)
	if a.IsShapeOnly() || b.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product a ⊙ b.
func Mul(a, b *Tile) *Tile {
	mustSameShape("mul", a, b)
	if a.IsShapeOnly() || b.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddInto accumulates src into dst in place (shapes must match). A
// shape-only operand makes dst shape-only; a shape-only dst is not
// written.
func AddInto(dst, src *Tile) {
	mustSameShape("addinto", dst, src)
	if dst.IsShapeOnly() || src.IsShapeOnly() {
		if dst.Data != nil {
			dst.Data = nil
		}
		return
	}
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}

// SiLU applies x·sigmoid(x) element-wise (the SwiGLU activation).
func SiLU(a *Tile) *Tile {
	if a.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v / (1 + float32(math.Exp(-float64(v))))
	}
	return out
}

// Scale multiplies all elements by s.
func Scale(a *Tile, s float32) *Tile {
	if a.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	return out
}

// RowSoftmax applies a numerically stable softmax along each row.
func RowSoftmax(a *Tile) *Tile {
	if a.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		orow := out.Data[r*a.Cols : (r+1)*a.Cols]
		if len(row) == 0 {
			continue
		}
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			orow[i] = float32(e)
			sum += e
		}
		if sum > 0 {
			inv := float32(1 / sum)
			for i := range orow {
				orow[i] *= inv
			}
		}
	}
	return out
}

// RowSum reduces each row to a single column.
func RowSum(a *Tile) *Tile {
	if a.IsShapeOnly() {
		return ShapeOnly(a.Rows, 1)
	}
	out := New(a.Rows, 1)
	for r := 0; r < a.Rows; r++ {
		var s float32
		for c := 0; c < a.Cols; c++ {
			s += a.At(r, c)
		}
		out.Set(r, 0, s)
	}
	return out
}

// ConcatRows stacks a on top of b (RetileRow in the paper: concatenates
// tiles row-wise). Column counts must match unless one side is empty.
func ConcatRows(a, b *Tile) *Tile {
	if a.Elems() == 0 {
		return b.Clone()
	}
	if b.Elems() == 0 {
		return a.Clone()
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tile: concat-rows col mismatch %d vs %d", a.Cols, b.Cols))
	}
	if a.IsShapeOnly() || b.IsShapeOnly() {
		return ShapeOnly(a.Rows+b.Rows, a.Cols)
	}
	out := New(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[a.Elems():], b.Data)
	return out
}

// ConcatCols places b to the right of a (RetileCol). Row counts must match
// unless one side is empty.
func ConcatCols(a, b *Tile) *Tile {
	if a.Elems() == 0 {
		return b.Clone()
	}
	if b.Elems() == 0 {
		return a.Clone()
	}
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tile: concat-cols row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if a.IsShapeOnly() || b.IsShapeOnly() {
		return ShapeOnly(a.Rows, a.Cols+b.Cols)
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Data[r*out.Cols:], a.Data[r*a.Cols:(r+1)*a.Cols])
		copy(out.Data[r*out.Cols+a.Cols:], b.Data[r*b.Cols:(r+1)*b.Cols])
	}
	return out
}

// Slice returns the sub-tile rows [r0,r1) × cols [c0,c1).
func (t *Tile) Slice(r0, r1, c0, c1 int) *Tile {
	if r0 < 0 || r1 > t.Rows || c0 < 0 || c1 > t.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("tile: slice [%d:%d,%d:%d] out of %dx%d", r0, r1, c0, c1, t.Rows, t.Cols))
	}
	if t.IsShapeOnly() {
		return ShapeOnly(r1-r0, c1-c0)
	}
	out := New(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Data[(r-r0)*out.Cols:], t.Data[r*t.Cols+c0:r*t.Cols+c1])
	}
	return out
}

// PadTo returns a copy of t zero-padded to rows×cols (each must be >= the
// current extent).
func (t *Tile) PadTo(rows, cols int) *Tile {
	if rows < t.Rows || cols < t.Cols {
		panic(fmt.Sprintf("tile: cannot pad %dx%d down to %dx%d", t.Rows, t.Cols, rows, cols))
	}
	if t.IsShapeOnly() {
		return ShapeOnly(rows, cols)
	}
	out := New(rows, cols)
	for r := 0; r < t.Rows; r++ {
		copy(out.Data[r*cols:], t.Data[r*t.Cols:(r+1)*t.Cols])
	}
	return out
}

// SplitRows cuts the tile into chunks of at most chunk rows, in order. The
// final chunk may be shorter (RetileStreamify in the paper splits a packed
// tile row-wise into smaller tiles).
func (t *Tile) SplitRows(chunk int) []*Tile {
	if chunk <= 0 {
		panic("tile: SplitRows chunk must be positive")
	}
	var out []*Tile
	for r := 0; r < t.Rows; r += chunk {
		hi := r + chunk
		if hi > t.Rows {
			hi = t.Rows
		}
		out = append(out, t.Slice(r, hi, 0, t.Cols))
	}
	return out
}

// SplitCols cuts the tile column-wise into chunks of at most chunk columns.
func (t *Tile) SplitCols(chunk int) []*Tile {
	if chunk <= 0 {
		panic("tile: SplitCols chunk must be positive")
	}
	var out []*Tile
	for c := 0; c < t.Cols; c += chunk {
		hi := c + chunk
		if hi > t.Cols {
			hi = t.Cols
		}
		out = append(out, t.Slice(0, t.Rows, c, hi))
	}
	return out
}

// Transpose returns tᵀ.
func (t *Tile) Transpose() *Tile {
	if t.IsShapeOnly() {
		return ShapeOnly(t.Cols, t.Rows)
	}
	out := New(t.Cols, t.Rows)
	for r := 0; r < t.Rows; r++ {
		for c := 0; c < t.Cols; c++ {
			out.Set(c, r, t.At(r, c))
		}
	}
	return out
}

func mustSameShape(op string, a, b *Tile) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tile: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Package shape implements STeP's stream shape semantics (paper §3.1 and
// Appendix B.1). A rank-N stream has a shape [D_N, …, D_1, D_0] whose
// dimensions may be static-regular, dynamic-regular, or ragged. Ragged
// dimensions "absorb" in products: any shape equation containing a ragged
// dimension becomes a new ragged dimension, named by the operator that
// introduces it.
package shape

import (
	"fmt"
	"strings"

	"step/internal/symbolic"
)

// Kind classifies a stream dimension.
type Kind int

const (
	// StaticRegular dimensions have a compile-time constant size.
	StaticRegular Kind = iota
	// DynamicRegular dimensions have a data-dependent but constant size,
	// represented symbolically.
	DynamicRegular
	// Ragged dimensions take varying sizes across the stream; their extent
	// is a symbol named by the operator that introduces it, and it absorbs
	// in shape equations.
	Ragged
)

func (k Kind) String() string {
	switch k {
	case StaticRegular:
		return "static"
	case DynamicRegular:
		return "dynamic"
	case Ragged:
		return "ragged"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dim is one dimension of a stream shape.
type Dim struct {
	Kind Kind
	// Size is the symbolic extent. For StaticRegular it is a constant; for
	// DynamicRegular it is an expression over data-dependent symbols; for
	// Ragged it is the symbol naming the ragged extent.
	Size symbolic.Expr
}

// Static returns a static-regular dimension of the given size.
func Static(n int) Dim {
	return Dim{Kind: StaticRegular, Size: symbolic.Const(int64(n))}
}

// Dynamic returns a dynamic-regular dimension with the given symbolic size.
func Dynamic(size symbolic.Expr) Dim {
	return Dim{Kind: DynamicRegular, Size: size}
}

// NamedRagged returns a ragged dimension with an explicit symbol name.
// Every ragged symbol is named by its caller, so a program's shapes and
// equations are a function of its structure alone.
func NamedRagged(name string) Dim {
	return Dim{Kind: Ragged, Size: symbolic.Sym(name)}
}

// IsStatic reports whether the dimension is static-regular and its size.
func (d Dim) IsStatic() (int, bool) {
	if d.Kind != StaticRegular {
		return 0, false
	}
	v, ok := d.Size.IsConst()
	return int(v), ok
}

func (d Dim) String() string {
	switch d.Kind {
	case StaticRegular:
		return d.Size.String()
	case DynamicRegular:
		return d.Size.String()
	default:
		return d.Size.String() + "~" // ragged marker
	}
}

// Shape is a stream shape [D_{n-1}, …, D_0], outermost first.
type Shape struct {
	Dims []Dim
}

// New builds a shape from outermost to innermost dimensions.
func New(dims ...Dim) Shape { return Shape{Dims: dims} }

// Scalar is the rank-0 shape (a stream of bare elements, no stop tokens).
func Scalar() Shape { return Shape{} }

// OfInts builds an all-static shape.
func OfInts(sizes ...int) Shape {
	dims := make([]Dim, len(sizes))
	for i, s := range sizes {
		dims[i] = Static(s)
	}
	return Shape{Dims: dims}
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s.Dims) }

// Dim returns dimension i counted from the innermost (index 0 = innermost),
// matching the paper's D_0 … D_N numbering.
func (s Shape) Dim(i int) Dim {
	return s.Dims[len(s.Dims)-1-i]
}

// Outer returns the outermost dimension.
func (s Shape) Outer() Dim { return s.Dims[0] }

// Clone returns a copy whose Dims slice is independent.
func (s Shape) Clone() Shape {
	out := make([]Dim, len(s.Dims))
	copy(out, s.Dims)
	return Shape{Dims: out}
}

// String renders the shape in the paper's [D_N, …, D_0] notation.
func (s Shape) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// IsFullyStatic reports whether all dimensions are static-regular.
func (s Shape) IsFullyStatic() bool {
	for _, d := range s.Dims {
		if d.Kind != StaticRegular {
			return false
		}
	}
	return true
}

// HasDynamic reports whether any dimension is dynamic (dynamic-regular or
// ragged with data-dependent values).
func (s Shape) HasDynamic() bool {
	for _, d := range s.Dims {
		if d.Kind != StaticRegular {
			return true
		}
	}
	return false
}

// Cardinality returns the symbolic product of all dimension sizes (‖X‖ in
// §4.2). A ragged dimension contributes its own symbol: the frontend keeps
// the product form for readability and defers to the simulator for
// concrete values (paper §4.2 "Handling data dependencies").
func (s Shape) Cardinality() symbolic.Expr {
	factors := make([]symbolic.Expr, 0, len(s.Dims))
	for _, d := range s.Dims {
		factors = append(factors, d.Size)
	}
	return symbolic.Mul(factors...)
}

// Equal reports whether two shapes agree structurally: same rank, same
// kinds, and symbolically equal sizes.
func Equal(a, b Shape) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i].Kind != b.Dims[i].Kind {
			return false
		}
		if !symbolic.Equal(a.Dims[i].Size, b.Dims[i].Size) {
			return false
		}
	}
	return true
}

// Compatible reports whether a stream of shape `have` can feed a consumer
// declaring `want`. Per §3.1, operators that accept a dimension type also
// accept more restrictive types: static ⊂ dynamic-regular ⊂ ragged.
func Compatible(have, want Shape) bool {
	if have.Rank() != want.Rank() {
		return false
	}
	for i := range have.Dims {
		if !dimCompatible(have.Dims[i], want.Dims[i]) {
			return false
		}
	}
	return true
}

func dimCompatible(have, want Dim) bool {
	switch want.Kind {
	case Ragged:
		return true // ragged accepts anything
	case DynamicRegular:
		if have.Kind == Ragged {
			return false
		}
		return true
	default: // StaticRegular: sizes must match exactly
		if have.Kind != StaticRegular {
			return false
		}
		hv, _ := have.Size.IsConst()
		wv, _ := want.Size.IsConst()
		return hv == wv
	}
}

// --- Shape-operator rules (Tables 3–7) ---

// Flatten merges dims [lo,hi] (innermost-indexed, inclusive) into one
// whose size is their product. A ragged dim in range absorbs the product
// (example 1 in §3.1): the merged dim is then the ragged dim named ragged.
func (s Shape) Flatten(lo, hi int, ragged string) (Shape, error) {
	if lo < 0 || hi >= s.Rank() || lo >= hi {
		return Shape{}, fmt.Errorf("shape: flatten range [%d,%d] invalid for rank %d", lo, hi, s.Rank())
	}
	kind := StaticRegular
	factors := make([]symbolic.Expr, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		kind = max(kind, s.Dim(i).Kind)
		factors = append(factors, s.Dim(i).Size)
	}
	merged := Dim{Kind: kind, Size: symbolic.Mul(factors...)}
	if kind == Ragged {
		merged = NamedRagged(ragged)
	}
	out := append(append([]Dim{}, s.Dims[:s.Rank()-1-hi]...), merged)
	return Shape{Dims: append(out, s.Dims[s.Rank()-lo:]...)}, nil
}

// Reshape splits dimension b (innermost-indexed) into chunks of chunkSize,
// producing [… ,⌈D_b/S⌉, S, …]. When b refers to a dimension above the
// innermost, the dimension must be static and divisible; when it is the
// innermost, any kind is allowed and padding is implied (handled by the
// operator at runtime). A ragged dim b absorbs its chunk count into the
// ragged dim named ragged.
func (s Shape) Reshape(b, chunkSize int, ragged string) (Shape, error) {
	if b < 0 || b >= s.Rank() {
		return Shape{}, fmt.Errorf("shape: reshape rank %d out of range for rank %d", b, s.Rank())
	}
	if chunkSize <= 0 {
		return Shape{}, fmt.Errorf("shape: reshape chunk size %d must be positive", chunkSize)
	}
	d := s.Dim(b)
	if b > 0 {
		// Non-innermost split: must be static and divisible (Appendix B.1).
		sz, ok := d.IsStatic()
		if !ok {
			return Shape{}, fmt.Errorf("shape: reshape of non-innermost dim requires static dim, got %s", d)
		}
		if sz%chunkSize != 0 {
			return Shape{}, fmt.Errorf("shape: reshape dim %d not divisible by chunk %d", sz, chunkSize)
		}
	}
	outer := Dim{Kind: d.Kind, Size: symbolic.CeilDiv(d.Size, symbolic.Const(int64(chunkSize)))}
	if d.Kind == Ragged {
		outer = NamedRagged(ragged)
	}
	inner := Static(chunkSize)
	out := make([]Dim, 0, s.Rank()+1)
	for i := s.Rank() - 1; i > b; i-- {
		out = append(out, s.Dim(i))
	}
	out = append(out, outer, inner)
	for i := b - 1; i >= 0; i-- {
		out = append(out, s.Dim(i))
	}
	return Shape{Dims: out}, nil
}

// Promote adds a new outermost dimension of extent 1 (or 0 for an empty
// stream; the symbolic form is conservatively 1-or-0, which we model as a
// dynamic-regular dim when the outer dim is dynamic, else static 1).
func (s Shape) Promote() Shape {
	out := make([]Dim, 0, s.Rank()+1)
	newDim := Static(1)
	if s.Rank() > 0 && s.Outer().Kind != StaticRegular {
		// (1 if D_a > 0 else 0): data-dependent constant.
		newDim = Dynamic(symbolic.Sym("ind(" + s.Outer().Size.String() + ">0)"))
	}
	out = append(out, newDim)
	out = append(out, s.Dims...)
	return Shape{Dims: out}
}

// Expand replaces the inner b dims (which must all be extent-1) with the
// reference stream's corresponding dims; the output shape equals the
// reference shape.
func (s Shape) Expand(ref Shape, b int) (Shape, error) {
	if s.Rank() != ref.Rank() {
		return Shape{}, fmt.Errorf("shape: expand rank mismatch %d vs %d", s.Rank(), ref.Rank())
	}
	if b < 0 || b > s.Rank() {
		return Shape{}, fmt.Errorf("shape: expand rank %d out of range", b)
	}
	for i := 0; i < b; i++ {
		if sz, ok := s.Dim(i).IsStatic(); !ok || sz != 1 {
			return Shape{}, fmt.Errorf("shape: expand input dim %d must be static 1, got %s", i, s.Dim(i))
		}
	}
	// Outer dims (above b) must match the reference.
	for i := b; i < s.Rank(); i++ {
		if !dimCompatible(s.Dim(i), ref.Dim(i)) && !dimCompatible(ref.Dim(i), s.Dim(i)) {
			return Shape{}, fmt.Errorf("shape: expand outer dim %d mismatch: %s vs %s", i, s.Dim(i), ref.Dim(i))
		}
	}
	return ref.Clone(), nil
}

// Drop returns the shape with the innermost b dims removed (used by Accum
// and Bufferize, which consume the inner dims).
func (s Shape) Drop(b int) (Shape, error) {
	if b < 0 || b > s.Rank() {
		return Shape{}, fmt.Errorf("shape: drop %d out of range for rank %d", b, s.Rank())
	}
	out := make([]Dim, s.Rank()-b)
	copy(out, s.Dims[:s.Rank()-b])
	return Shape{Dims: out}, nil
}

// Inner returns the innermost b dims as a shape (the buffer shape for
// Bufferize).
func (s Shape) Inner(b int) (Shape, error) {
	if b < 0 || b > s.Rank() {
		return Shape{}, fmt.Errorf("shape: inner %d out of range for rank %d", b, s.Rank())
	}
	out := make([]Dim, b)
	copy(out, s.Dims[s.Rank()-b:])
	return Shape{Dims: out}, nil
}

// Concat returns the shape [outer…, inner…].
func Concat(outer, inner Shape) Shape {
	out := make([]Dim, 0, outer.Rank()+inner.Rank())
	out = append(out, outer.Dims...)
	out = append(out, inner.Dims...)
	return Shape{Dims: out}
}

package tile

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	if m.Bytes() != 12 { // 6 elems × 2 bytes
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float32{{1}, {2, 3}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-6) {
		t.Fatalf("matmul = %v", c.Data)
	}
	if MatMulFLOPs(a, b) != 16 {
		t.Fatalf("flops = %d", MatMulFLOPs(a, b))
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestAddMulSiLU(t *testing.T) {
	a := FromRows([][]float32{{1, -1}})
	b := FromRows([][]float32{{2, 3}})
	if got := Add(a, b); got.At(0, 0) != 3 || got.At(0, 1) != 2 {
		t.Fatalf("add = %v", got.Data)
	}
	if got := Mul(a, b); got.At(0, 0) != 2 || got.At(0, 1) != -3 {
		t.Fatalf("mul = %v", got.Data)
	}
	s := SiLU(FromRows([][]float32{{0}}))
	if s.At(0, 0) != 0 {
		t.Fatalf("silu(0) = %f", s.At(0, 0))
	}
	s = SiLU(FromRows([][]float32{{10}}))
	if math.Abs(float64(s.At(0, 0))-10) > 1e-3 {
		t.Fatalf("silu(10) = %f", s.At(0, 0))
	}
}

func TestRowSoftmax(t *testing.T) {
	s := RowSoftmax(FromRows([][]float32{{1, 1, 1, 1}}))
	for c := 0; c < 4; c++ {
		if math.Abs(float64(s.At(0, c))-0.25) > 1e-6 {
			t.Fatalf("softmax uniform = %v", s.Data)
		}
	}
	// Rows sum to 1 even with large magnitudes (stability check).
	s = RowSoftmax(FromRows([][]float32{{100, 0, -100}}))
	var sum float32
	for c := 0; c < 3; c++ {
		sum += s.At(0, c)
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("softmax row sum = %f", sum)
	}
}

func TestRowSum(t *testing.T) {
	r := RowSum(FromRows([][]float32{{1, 2, 3}, {4, 5, 6}}))
	if r.Rows != 2 || r.Cols != 1 || r.At(0, 0) != 6 || r.At(1, 0) != 15 {
		t.Fatalf("rowsum = %+v", r)
	}
}

func TestConcatRowsCols(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{3, 4}})
	rc := ConcatRows(a, b)
	if rc.Rows != 2 || rc.At(1, 0) != 3 {
		t.Fatalf("concat rows = %+v", rc)
	}
	cc := ConcatCols(a, b)
	if cc.Cols != 4 || cc.At(0, 2) != 3 {
		t.Fatalf("concat cols = %+v", cc)
	}
	// Empty sides pass through.
	if got := ConcatRows(New(0, 0), a); !Equal(got, a, 0) {
		t.Fatal("concat with empty lhs should be identity")
	}
	if got := ConcatCols(a, New(0, 0)); !Equal(got, a, 0) {
		t.Fatal("concat with empty rhs should be identity")
	}
}

func TestSlicePadSplit(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	if s.Rows != 2 || s.Cols != 2 || s.At(0, 0) != 4 || s.At(1, 1) != 8 {
		t.Fatalf("slice = %+v", s)
	}
	p := s.PadTo(3, 3)
	if p.Rows != 3 || p.At(2, 2) != 0 || p.At(0, 0) != 4 {
		t.Fatalf("pad = %+v", p)
	}
	chunks := m.SplitRows(2)
	if len(chunks) != 2 || chunks[0].Rows != 2 || chunks[1].Rows != 1 {
		t.Fatalf("splitrows = %d chunks", len(chunks))
	}
	cols := m.SplitCols(2)
	if len(cols) != 2 || cols[0].Cols != 2 || cols[1].Cols != 1 {
		t.Fatalf("splitcols = %d chunks", len(cols))
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose = %+v", tr)
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := Random(4, 4, 42)
	b := Random(4, 4, 42)
	if !Equal(a, b, 0) {
		t.Fatal("Random must be deterministic for equal seeds")
	}
	c := Random(4, 4, 43)
	if Equal(a, c, 0) {
		t.Fatal("different seeds should differ")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value out of range: %f", v)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickMatMulTranspose(t *testing.T) {
	f := func(seed uint16, m8, k8, n8 uint8) bool {
		m, k, n := int(m8%5)+1, int(k8%5)+1, int(n8%5)+1
		a := Random(m, k, uint64(seed))
		b := Random(k, n, uint64(seed)+1)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return Equal(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConcatRows then SplitRows round-trips.
func TestQuickConcatSplitRoundTrip(t *testing.T) {
	f := func(seed uint16, r8 uint8) bool {
		r := int(r8%6) + 1
		a := Random(r, 3, uint64(seed))
		b := Random(r, 3, uint64(seed)+7)
		joined := ConcatRows(a, b)
		parts := joined.SplitRows(r)
		return len(parts) == 2 && Equal(parts[0], a, 0) && Equal(parts[1], b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over row concatenation:
// [A1; A2]·B == [A1·B; A2·B].
func TestQuickMatMulRowBlocked(t *testing.T) {
	f := func(seed uint16) bool {
		a1 := Random(2, 3, uint64(seed))
		a2 := Random(3, 3, uint64(seed)+1)
		b := Random(3, 4, uint64(seed)+2)
		whole := MatMul(ConcatRows(a1, a2), b)
		blocked := ConcatRows(MatMul(a1, b), MatMul(a2, b))
		return Equal(whole, blocked, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeOnlyTilesAreNeverWritten runs every tile function over
// shape-only operands. ShapeOnly shares one tile per shape across the
// process, so no function may change an operand, and every result must be
// shape-only with the function's output shape.
func TestShapeOnlyTilesAreNeverWritten(t *testing.T) {
	s, v := ShapeOnly(3, 3), ShapeOnly(1, 3)
	if ShapeOnly(3, 3) != s || s.Clone() != s {
		t.Fatal("ShapeOnly(3, 3) is not interned")
	}
	d := Filled(3, 3, 1)
	acc := Filled(3, 3, 1)
	AddInto(s, s)
	AddInto(s, d)
	AddInto(acc, s)
	cases := []struct {
		name       string
		got        *Tile
		rows, cols int
	}{
		{"MatMul(s, d)", MatMul(s, d), 3, 3},
		{"MatMul(d, s)", MatMul(d, s), 3, 3},
		{"Add", Add(s, d), 3, 3},
		{"Mul", Mul(d, s), 3, 3},
		{"SiLU", SiLU(s), 3, 3},
		{"Scale", Scale(s, 2), 3, 3},
		{"RowSoftmax", RowSoftmax(s), 3, 3},
		{"RowSum", RowSum(s), 3, 1},
		{"ConcatRows", ConcatRows(v, s), 4, 3},
		{"ConcatRows(empty, s)", ConcatRows(New(0, 0), s), 3, 3},
		{"ConcatCols", ConcatCols(s, d), 3, 6},
		{"Slice", s.Slice(1, 3, 0, 2), 2, 2},
		{"PadTo", s.PadTo(4, 4), 4, 4},
		{"SplitRows", s.SplitRows(2)[1], 1, 3},
		{"SplitCols", s.SplitCols(2)[1], 3, 1},
		{"Transpose", v.Transpose(), 3, 1},
		{"AddInto(data, s)", acc, 3, 3},
	}
	for _, c := range cases {
		if !c.got.IsShapeOnly() || c.got.Rows != c.rows || c.got.Cols != c.cols {
			t.Errorf("%s = %dx%d (shape-only %v), want shape-only %dx%d",
				c.name, c.got.Rows, c.got.Cols, c.got.IsShapeOnly(), c.rows, c.cols)
		}
	}
	for _, op := range []struct {
		t          *Tile
		rows, cols int
	}{{s, 3, 3}, {v, 1, 3}} {
		if op.t.Rows != op.rows || op.t.Cols != op.cols || op.t.Data != nil {
			t.Errorf("shape-only %dx%d operand changed to %dx%d (data %v)", op.rows, op.cols, op.t.Rows, op.t.Cols, op.t.Data != nil)
		}
	}
}

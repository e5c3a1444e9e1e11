package ops

import (
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

// tileElem wraps a tile into a data element.
func tileElem(t *tile.Tile) element.Element { return element.DataOf(element.TileVal{T: t}) }

// capturedTiles extracts the tiles of a capture's data elements.
func capturedTiles(t *testing.T, sess *graph.Session, c *CaptureOp) []*tile.Tile {
	t.Helper()
	var out []*tile.Tile
	for _, e := range captured(sess, c) {
		if !e.IsData() {
			continue
		}
		tv, ok := e.Value.(element.TileVal)
		if !ok {
			t.Fatalf("expected tile, got %T", e.Value)
		}
		out = append(out, tv.T)
	}
	return out
}

func TestMapMatmul(t *testing.T) {
	g := graph.New()
	a := tile.FromRows([][]float32{{1, 2}})
	b := tile.FromRows([][]float32{{3}, {4}})
	sa := Source(g, "a", shape.OfInts(1), graph.StaticTile(1, 2), []element.Element{tileElem(a), dn})
	sb := Source(g, "b", shape.OfInts(1), graph.StaticTile(2, 1), []element.Element{tileElem(b), dn})
	m := Map2(g, "mm", sa, sb, MatmulFn(), ComputeOpts{ComputeBW: 4})
	if tt, ok := m.DType.(graph.TileType); ok {
		r, c, _ := tt.StaticDims()
		if r != 1 || c != 1 {
			t.Fatalf("output dtype %s", tt)
		}
	} else {
		t.Fatalf("output dtype %T", m.DType)
	}
	cap := Capture(g, "cap", m)
	sess := run(t, g)
	res := sess.Result
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 1 || tiles[0].At(0, 0) != 11 {
		t.Fatalf("matmul result %+v", tiles)
	}
	if res.TotalFLOPs != 4 { // 2*1*2*1
		t.Fatalf("flops = %d", res.TotalFLOPs)
	}
}

func TestMapRooflineTiming(t *testing.T) {
	// One 16x16 tile, 8192 FLOPs at 64 FLOPs/cycle = 128 cycles dominated
	// by compute.
	g := graph.New()
	a := tile.Random(16, 16, 1)
	b := tile.Random(16, 16, 2)
	sa := Source(g, "a", shape.OfInts(1), graph.StaticTile(16, 16), []element.Element{tileElem(a), dn})
	sb := Source(g, "b", shape.OfInts(1), graph.StaticTile(16, 16), []element.Element{tileElem(b), dn})
	m := Map2(g, "mm", sa, sb, MatmulFn(), ComputeOpts{ComputeBW: 64})
	Sink(g, "sink", m)
	res := run(t, g).Result
	want := tile.MatMulFLOPs(a, b) / 64 // 8192/64 = 128
	if res.Cycles < 128 || res.Cycles > 128+16 {
		t.Fatalf("cycles = %d, want ~%d", res.Cycles, want)
	}
}

func TestAccumRetileRow(t *testing.T) {
	// [2,2] of [1,3] tiles -> Accum(rank 1, RetileRow) -> [2] of [2,3].
	g := graph.New()
	mk := func(v float32) *tile.Tile { return tile.Filled(1, 3, v) }
	es := []element.Element{
		tileElem(mk(1)), tileElem(mk(2)), st(1),
		tileElem(mk(3)), tileElem(mk(4)), st(1), dn,
	}
	s := Source(g, "src", shape.OfInts(2, 2), graph.StaticTile(1, 3), es)
	a := Accum(g, "acc", s, 1, RetileRowFn(), ComputeOpts{})
	cap := Capture(g, "cap", a)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 2 {
		t.Fatalf("%d tiles", len(tiles))
	}
	if tiles[0].Rows != 2 || tiles[0].Cols != 3 {
		t.Fatalf("packed shape %s", tiles[0])
	}
	if tiles[0].At(0, 0) != 1 || tiles[0].At(1, 0) != 2 || tiles[1].At(1, 2) != 4 {
		t.Fatal("packed contents wrong")
	}
}

func TestAccumDynamicGroups(t *testing.T) {
	// Ragged groups: sizes 3 and 1 pack into tiles with 3 and 1 rows —
	// the dynamic tiling primitive (§5.2).
	g := graph.New()
	es := []element.Element{
		tileElem(tile.Filled(1, 2, 1)), tileElem(tile.Filled(1, 2, 2)), tileElem(tile.Filled(1, 2, 3)), st(1),
		tileElem(tile.Filled(1, 2, 4)), st(1), dn,
	}
	s := Source(g, "src", shape.New(shape.Static(2), shape.NamedRagged("R")), graph.StaticTile(1, 2), es)
	a := Accum(g, "acc", s, 1, RetileRowFn(), ComputeOpts{})
	cap := Capture(g, "cap", a)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 2 || tiles[0].Rows != 3 || tiles[1].Rows != 1 {
		t.Fatalf("dynamic tiles %+v", tiles)
	}
}

func TestAccumElemAddReduction(t *testing.T) {
	g := graph.New()
	es := []element.Element{
		tileElem(tile.Filled(2, 2, 1)), tileElem(tile.Filled(2, 2, 2)), st(1), dn,
	}
	s := Source(g, "src", shape.OfInts(1, 2), graph.StaticTile(2, 2), es)
	a := Accum(g, "acc", s, 1, ElemAddFn(), ComputeOpts{ComputeBW: 16})
	cap := Capture(g, "cap", a)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 1 || tiles[0].At(0, 0) != 3 {
		t.Fatalf("sum = %+v", tiles)
	}
}

func TestAccumStopLevels(t *testing.T) {
	// [2,2,2] accum rank 1 -> [2,2]: S2 closers become S1.
	g := graph.New()
	es := []element.Element{
		sc(1), sc(2), st(1), sc(3), sc(4), st(2),
		sc(5), sc(6), st(1), sc(7), sc(8), st(2), dn,
	}
	s := Source(g, "src", shape.OfInts(2, 2, 2), graph.ScalarType{}, es)
	sum := AccumFn{
		Name: "sum",
		Init: func() element.Value { return element.Scalar{V: 0} },
		Update: func(state, v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: state.(element.Scalar).V + v.(element.Scalar).V}, 1, nil
		},
	}
	a := Accum(g, "acc", s, 1, sum, ComputeOpts{ComputeBW: 1})
	cap := Capture(g, "cap", a)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "3,7,S1,11,15,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestScanEmitsRunningState(t *testing.T) {
	g := graph.New()
	es := []element.Element{sc(1), sc(2), st(1), sc(3), st(1), dn}
	s := Source(g, "src", shape.OfInts(2, 2), graph.ScalarType{}, es)
	sum := AccumFn{
		Name: "sum",
		Init: func() element.Value { return element.Scalar{V: 0} },
		Update: func(state, v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: state.(element.Scalar).V + v.(element.Scalar).V}, 1, nil
		},
	}
	sc := Scan(g, "scan", s, 1, sum, ComputeOpts{ComputeBW: 1})
	cap := Capture(g, "cap", sc)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,3,S1,3,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestFlatMapRetileStreamify(t *testing.T) {
	// Split a packed [4,2] tile into 4 [1,2] tiles (Fig. 7 unpack).
	g := graph.New()
	packed := tile.FromRows([][]float32{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	s := Source(g, "src", shape.OfInts(1), graph.StaticTile(4, 2), []element.Element{tileElem(packed), dn})
	f := FlatMap(g, "fm", s, 0, RetileStreamifyFn(1), []shape.Dim{shape.NamedRagged("N")})
	cap := Capture(g, "cap", f)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 4 || tiles[2].At(0, 0) != 3 {
		t.Fatalf("split tiles %+v", tiles)
	}
}

func TestFlatMapShiftsStops(t *testing.T) {
	// Rank-1 fragments: input [2] with b=1 -> output [2, D', x].
	g := graph.New()
	s := Source(g, "src", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(2), sc(3), dn})
	fn := FlatMapFn{
		Name: "iota",
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			n := v.(element.Scalar).V
			var out []element.Element
			for i := int64(0); i < n; i++ {
				out = append(out, sc(i))
			}
			out = append(out, st(1))
			return out, 0, nil
		},
	}
	f := FlatMap(g, "fm", s, 1, fn, []shape.Dim{shape.NamedRagged("G"), shape.NamedRagged("g")})
	cap := Capture(g, "cap", f)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "0,1,S1,0,1,2,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestMapOnchipEquation(t *testing.T) {
	// §4.2 matmul Map equation: 16*in_tile_col*2 + |weight tile|.
	g := graph.New()
	sa := Source(g, "a", shape.OfInts(1), graph.StaticTile(16, 64), []element.Element{tileElem(tile.New(16, 64)), dn})
	sb := Source(g, "b", shape.OfInts(1), graph.StaticTile(64, 64), []element.Element{tileElem(tile.New(64, 64)), dn})
	m := Map2(g, "mm", sa, sb, MatmulFn(),
		MatmulOpts(64, symbolic.Const(64), symbolic.Const(64*64*2), symbolic.Const(16*64*2), false))
	Sink(g, "sink", m)
	want := int64(16*64*2 + 64*64*2)
	got, err := g.SymbolicOnchipBytes().Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("onchip = %d, want %d", got, want)
	}
	run(t, g)
}

package ops

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

func TestTakeTruncatesAndDrains(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(5), graph.ScalarType{},
		[]element.Element{sc(1), sc(2), sc(3), sc(4), sc(5), dn})
	tk := Take(g, "take", s, 3)
	cap := Capture(g, "cap", tk)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,3,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestTakeUnderflowErrors(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	tk := Take(g, "take", s, 3)
	Capture(g, "cap", tk)
	if _, err := runGraph(g); err == nil {
		t.Fatal("expected underflow error")
	}
}

// TestTakeRejectsNegativeCount: a negative count fails at build, on the
// Go path and on the IR path.
func TestTakeRejectsNegativeCount(t *testing.T) {
	build := func(g *graph.Graph, n int) {
		Sink(g, "s", Take(g, "take", CountSource(g, "in", 2), n))
	}
	g := graph.New()
	build(g, -5)
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "take count -5") {
		t.Fatalf("Finalize = %v, want a negative-count error", err)
	}
	err := loadWithAttrs(t, func(g *graph.Graph) { build(g, 1) }, "take", `{"n":-5}`)
	if err == nil || !strings.Contains(err.Error(), "n -5 < 0") {
		t.Fatalf("load = %v, want a negative-count error", err)
	}
}

func TestRelayClosesFeedbackLoop(t *testing.T) {
	// A counter loop: seed 1 token; each round trip through the loop
	// decrements a budget; Take caps the observed stream.
	g := graph.New()
	seed := Source(g, "seed", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(0), dn})
	relay, relayOut := Relay(g, "loop", graph.ScalarType{}, shape.New(shape.NamedRagged("L")))
	merged, msel := EagerMerge(g, "merge", []*graph.Stream{seed, relayOut})
	Sink(g, "mselsink", msel)
	taken := Take(g, "take", merged, 5)
	// Echo each token back into the loop.
	echoed := Map(g, "inc", taken, MapFn{
		Name: "inc",
		Apply: func(v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: v.(element.Scalar).V + 1}, 0, nil
		},
	}, ComputeOpts{})
	bc := Broadcast(g, "bc", echoed, 2)
	cap := Capture(g, "cap", bc[0])
	RelayFeed(g, relay, bc[1])
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,3,4,5,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestRelayUnfedErrors(t *testing.T) {
	g := graph.New()
	_, out := Relay(g, "lonely", graph.ScalarType{}, shape.OfInts(1))
	Capture(g, "cap", out)
	_, err := runGraph(g)
	if err == nil || !strings.Contains(err.Error(), "never fed") {
		t.Fatalf("err = %v", err)
	}
}

func TestReshapeNoPadRaggedTail(t *testing.T) {
	// Capacity-bounded chunking: [5] -> chunks of 2 with a ragged tail.
	g := graph.New()
	s := Source(g, "src", shape.OfInts(5), graph.ScalarType{},
		[]element.Element{sc(1), sc(2), sc(3), sc(4), sc(5), dn})
	data, pad := Reshape(g, "rs", s, 0, 2, nil)
	Sink(g, "padsink", pad)
	cap := Capture(g, "cap", data)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,S1,3,4,S1,5,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestScanStopStructurePreserved(t *testing.T) {
	// Scan output has exactly the input shape, including higher stops.
	g := graph.New()
	es := []element.Element{sc(1), st(1), sc(2), sc(3), st(2), sc(4), st(2), dn}
	s := Source(g, "src", shape.New(shape.Static(2), shape.NamedRagged("R"), shape.NamedRagged("r")),
		graph.ScalarType{}, es)
	sum := AccumFn{
		Name: "sum",
		Init: func() element.Value { return element.Scalar{V: 0} },
		Update: func(state, v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: state.(element.Scalar).V + v.(element.Scalar).V}, 1, nil
		},
	}
	out := Scan(g, "scan", s, 1, sum, ComputeOpts{ComputeBW: 1})
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,S1,2,5,S2,4,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestFlatMapRejectsOverRankFragment(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	fn := FlatMapFn{
		Name: "bad",
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			return []element.Element{sc(1), st(5)}, 0, nil
		},
	}
	f := FlatMap(g, "fm", s, 1, fn, []shape.Dim{shape.NamedRagged("A"), shape.NamedRagged("a")})
	Capture(g, "cap", f)
	if _, err := runGraph(g); err == nil {
		t.Fatal("expected over-rank fragment error")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	fn := MapFn{
		Name: "boom",
		Apply: func(v element.Value) (element.Value, int64, error) {
			return nil, 0, errBoom
		},
	}
	m := Map(g, "m", s, fn, ComputeOpts{})
	Capture(g, "cap", m)
	_, err := runGraph(g)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestPartitionSelectorTypeChecked(t *testing.T) {
	g := graph.New()
	in := Source(g, "in", shape.OfInts(1, 1), graph.ScalarType{}, []element.Element{sc(1), st(1), dn})
	notSel := Source(g, "sel", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(0), dn})
	Partition(g, "part", in, notSel, 1, 2)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected selector type error")
	}
}

func TestPartitionSelectorRankChecked(t *testing.T) {
	g := graph.New()
	in := Source(g, "in", shape.OfInts(2, 1), graph.ScalarType{},
		[]element.Element{sc(1), st(1), sc(2), st(1), dn})
	sel := Source(g, "sel", shape.OfInts(2, 1), graph.SelectorType{N: 2},
		[]element.Element{selElem(2, 0), st(1), selElem(2, 1), st(1), dn})
	Partition(g, "part", in, sel, 1, 2) // sel must be rank 0 here
	if err := g.Finalize(); err == nil {
		t.Fatal("expected selector rank error")
	}
}

func TestStreamifyRequiresBufferStream(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	out := StreamifyLinear(g, "str", s)
	Capture(g, "cap", out)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected buffer-stream type error")
	}
}

func TestStreamifyAffineNeedsStaticBuffer(t *testing.T) {
	g := graph.New()
	es := []element.Element{tl(1), st(1), dn}
	s := Source(g, "src", shape.New(shape.Static(1), shape.NamedRagged("R")), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	ref := CountSource(g, "ref", 1)
	stride := [2]int{1, 1}
	outShape := [2]int{1, 1}
	out := Streamify(g, "str", bufs, ref, &stride, &outShape)
	Capture(g, "cap", out)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected static-buffer requirement error")
	}
}

// TestStreamifyAffineBounds: an affine read with a non-positive out
// shape, or one reaching past the static buffer, fails at build on the
// Go path and at load on the IR path, not mid-run.
func TestStreamifyAffineBounds(t *testing.T) {
	build := func(g *graph.Graph, stride, outShape [2]int) {
		s := Source(g, "src", shape.OfInts(1, 2), graph.StaticTile(1, 1), []element.Element{tl(1), tl(2), st(1), dn})
		bufs := Bufferize(g, "buf", s, 1) // one buffer of 2 tiles
		Sink(g, "s", Streamify(g, "str", bufs, CountSource(g, "ref", 1), &stride, &outShape))
	}
	for _, c := range []struct {
		stride, outShape [2]int
		want             string
	}{
		{[2]int{1, 1}, [2]int{-1, 2}, "out shape"},
		{[2]int{1, 1}, [2]int{0, 2}, "out shape"},
		{[2]int{1, 1}, [2]int{1, 9}, "index 8 outside buffer of 2"},
		{[2]int{2, 50}, [2]int{1, 2}, "index 50 outside buffer of 2"},
		// A negative stride reaches below the buffer's first index even
		// though the corner sum, (2-1)*-1 + (2-1)*1 = 0, stays inside.
		{[2]int{-1, 1}, [2]int{2, 2}, "index -1 outside buffer of 2"},
	} {
		g := graph.New()
		build(g, c.stride, c.outShape)
		if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("stride %v out %v: Finalize = %v, want %q", c.stride, c.outShape, err, c.want)
		}
		attrs := fmt.Sprintf(`{"stride":[%d,%d],"out_shape":[%d,%d]}`, c.stride[0], c.stride[1], c.outShape[0], c.outShape[1])
		err := loadWithAttrs(t, func(g *graph.Graph) { build(g, [2]int{1, 1}, [2]int{1, 2}) }, "str", attrs)
		if want := strings.Replace(c.want, "out shape", "out_shape", 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("load %s = %v, want %q", attrs, err, want)
		}
	}
}

func TestBufferizeRankBounds(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(2), graph.StaticTile(1, 1), []element.Element{tl(1), tl(2), dn})
	Bufferize(g, "buf", s, 2) // rank == dims: invalid
	if err := g.Finalize(); err == nil {
		t.Fatal("expected rank bounds error")
	}
}

func TestEagerMergeMismatchedRanksRejected(t *testing.T) {
	g := graph.New()
	a := Source(g, "a", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	b := Source(g, "b", shape.OfInts(1, 1), graph.ScalarType{}, []element.Element{sc(2), st(1), dn})
	data, sel := EagerMerge(g, "m", []*graph.Stream{a, b})
	Sink(g, "d", data)
	Sink(g, "s", sel)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected rank mismatch error")
	}
}

func TestSourceValidatesStream(t *testing.T) {
	g := graph.New()
	Source(g, "bad", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1)}) // no Done
	if err := g.Finalize(); err == nil {
		t.Fatal("expected stream validation error")
	}
}

func TestLinearLoadStopMergesWithRefStops(t *testing.T) {
	// Block closer S2 and a ref S1 coincide: only S3 is emitted.
	g := graph.New()
	tensor := mustTensorEdge(t, 2, 2)
	ref := Source(g, "ref", shape.OfInts(1, 2), graph.ScalarType{},
		[]element.Element{sc(0), sc(0), st(1), dn})
	out := LinearOffChipLoad(g, "load", ref, tensor, [2]int{1, 1}, [2]int{1, 1})
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "Tile[2x2],S2,Tile[2x2],S3,D" {
		t.Fatalf("captured %s", got)
	}
}

// TestLinearLoadNegativeStrideRejected: an affine read whose smallest
// corner index falls below the grid fails at build on the Go path and at
// load on the IR path, not mid-run with a negative tile index.
func TestLinearLoadNegativeStrideRejected(t *testing.T) {
	tensor := mustTensor(t, tile.Random(4, 4, 1), 1, 1) // a 4x4 grid of 1x1 tiles
	build := func(g *graph.Graph, stride [2]int) {
		Sink(g, "s", LinearOffChipLoad(g, "load", CountSource(g, "ref", 1), tensor, stride, [2]int{2, 2}))
	}
	const want = "tile -1 outside grid 4x4"
	g := graph.New()
	build(g, [2]int{-1, 5})
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Finalize = %v, want %q", err, want)
	}

	g = graph.New()
	build(g, [2]int{1, 5})
	p, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ir, err := p.IR()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ir.Nodes {
		if ir.Nodes[i].Name != "load" {
			continue
		}
		var attrs map[string]json.RawMessage
		if err := json.Unmarshal(ir.Nodes[i].Attrs, &attrs); err != nil {
			t.Fatal(err)
		}
		attrs["stride"] = json.RawMessage(`[-1,5]`)
		if ir.Nodes[i].Attrs, err = json.Marshal(attrs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := graph.CompileIR(ir); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("load = %v, want %q", err, want)
	}
}

func mustTensorEdge(t *testing.T, r, c int) OffChipTensor {
	t.Helper()
	ot, err := NewOffChipTensor(tile.Random(r, c, 1), r, c)
	if err != nil {
		t.Fatal(err)
	}
	return ot
}

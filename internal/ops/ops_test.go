package ops

import (
	"fmt"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

// sc builds a scalar data element.
func sc(v int64) element.Element { return element.DataOf(element.Scalar{V: v}) }

// tl builds a 1x1 tile data element with the given value.
func tl(v float32) element.Element {
	t := tile.New(1, 1)
	t.Set(0, 0, v)
	return element.DataOf(element.TileVal{T: t})
}

// st is a stop token; dn the Done token.
func st(l int) element.Element { return element.StopOf(l) }

var dn = element.DoneElem

// runGraph compiles the graph and runs its program once with opts.
func runGraph(g *graph.Graph, opts ...graph.RunOption) (*graph.Session, error) {
	prog, err := g.Compile()
	if err != nil {
		return nil, err
	}
	return prog.Run(opts...)
}

// run executes the graph with default settings, failing the test on error.
func run(t *testing.T, g *graph.Graph) *graph.Session {
	t.Helper()
	sess, err := runGraph(g)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return sess
}

// captured returns the stream the capture recorded in the session's run.
func captured(sess *graph.Session, c *CaptureOp) []element.Element {
	es, _ := sess.Captured(c.Name())
	return es
}

// fmtCap formats the stream the capture recorded in the session's run.
func fmtCap(sess *graph.Session, c *CaptureOp) string { return element.FormatStream(captured(sess, c)) }

func TestSourceCaptureRoundTrip(t *testing.T) {
	g := graph.New()
	es := []element.Element{sc(1), sc(2), st(1), sc(3), st(2), dn}
	s := Source(g, "src", shape.OfInts(2, 2), graph.ScalarType{}, es)
	cap := Capture(g, "cap", s)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,S1,3,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestCountSource(t *testing.T) {
	g := graph.New()
	s := CountSource(g, "n", 3)
	cap := Capture(g, "cap", s)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "0,1,2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestBroadcast(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(7), sc(8), dn})
	outs := Broadcast(g, "bc", s, 3)
	caps := make([]*CaptureOp, 3)
	for i, o := range outs {
		caps[i] = Capture(g, fmt.Sprintf("cap%d", i), o)
	}
	sess := run(t, g)
	for i, c := range caps {
		if got := fmtCap(sess, c); got != "7,8,D" {
			t.Fatalf("branch %d captured %s", i, got)
		}
	}
}

func TestDoubleConsumeRejected(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	Capture(g, "a", s)
	Capture(g, "b", s)
	if err := g.Finalize(); err == nil {
		t.Fatal("expected double-consume error")
	}
}

func TestDanglingStreamRejected(t *testing.T) {
	g := graph.New()
	Source(g, "src", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(1), dn})
	if err := g.Finalize(); err == nil {
		t.Fatal("expected dangling-stream error")
	}
}

func TestFlattenPaperExample(t *testing.T) {
	// Fig. 7 "Pack to Tile": [D2,1] -> flatten(0,1) -> [D2].
	g := graph.New()
	es := []element.Element{sc(1), st(1), sc(2), st(1), sc(3), st(1), dn}
	s := Source(g, "src", shape.New(shape.NamedRagged("D2"), shape.Static(1)), graph.ScalarType{}, es)
	f := Flatten(g, "flat", s, 0, 1)
	cap := Capture(g, "cap", f)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,3,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestFlattenShiftsHigherStops(t *testing.T) {
	// [2,2,2] flatten(0,1) -> [2,4]: S1 dropped, S2 -> S1.
	g := graph.New()
	es := []element.Element{
		sc(1), sc(2), st(1), sc(3), sc(4), st(2),
		sc(5), sc(6), st(1), sc(7), sc(8), st(2), dn,
	}
	s := Source(g, "src", shape.OfInts(2, 2, 2), graph.ScalarType{}, es)
	f := Flatten(g, "flat", s, 0, 1)
	cap := Capture(g, "cap", f)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,3,4,S1,5,6,7,8,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestReshapeInnerPads(t *testing.T) {
	// [5] -> reshape(0, chunk 2, pad 0) -> [3,2] with one padded element.
	g := graph.New()
	es := []element.Element{sc(1), sc(2), sc(3), sc(4), sc(5), dn}
	s := Source(g, "src", shape.OfInts(5), graph.ScalarType{}, es)
	data, pad := Reshape(g, "rs", s, 0, 2, element.Scalar{V: 0})
	capD := Capture(g, "capD", data)
	capP := Capture(g, "capP", pad)
	sess := run(t, g)
	res := sess.Result
	if got := fmtCap(sess, capD); got != "1,2,S1,3,4,S1,5,0,S1,D" {
		t.Fatalf("data %s", got)
	}
	if got := fmtCap(sess, capP); got != "false,false,S1,false,false,S1,false,true,S1,D" {
		t.Fatalf("pad %s", got)
	}
	_ = res
}

func TestReshapeInnerStopSubsumesChunkClose(t *testing.T) {
	// [2,2] -> reshape(0, chunk 2) -> [2,1,2]: each row is exactly one
	// chunk; the chunk close is subsumed by the row stop (S1 -> S2).
	g := graph.New()
	es := []element.Element{sc(1), sc(2), st(1), sc(3), sc(4), st(1), dn}
	s := Source(g, "src", shape.OfInts(2, 2), graph.ScalarType{}, es)
	data, pad := Reshape(g, "rs", s, 0, 2, element.Scalar{V: 0})
	Sink(g, "sinkPad", pad)
	capD := Capture(g, "capD", data)
	sess := run(t, g)
	if got := fmtCap(sess, capD); got != "1,2,S2,3,4,S2,D" {
		t.Fatalf("data %s", got)
	}
}

func TestReshapeOuter(t *testing.T) {
	// [4,2] -> reshape(rank 1, chunk 2) -> [2,2,2].
	g := graph.New()
	es := []element.Element{
		sc(1), sc(2), st(1), sc(3), sc(4), st(1),
		sc(5), sc(6), st(1), sc(7), sc(8), st(1), dn,
	}
	s := Source(g, "src", shape.OfInts(4, 2), graph.ScalarType{}, es)
	data, pad := Reshape(g, "rs", s, 1, 2, nil)
	Sink(g, "sinkPad", pad)
	capD := Capture(g, "capD", data)
	sess := run(t, g)
	if got := fmtCap(sess, capD); got != "1,2,S1,3,4,S2,5,6,S1,7,8,S2,D" {
		t.Fatalf("data %s", got)
	}
}

func TestPromoteRankZero(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(3), graph.ScalarType{}, []element.Element{sc(1), sc(2), sc(3), dn})
	p := Promote(g, "pr", s)
	cap := Capture(g, "cap", p)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,3,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestPromoteSubsumesFinalStop(t *testing.T) {
	// [2,2] -> [1,2,2]: the final S1 becomes S2.
	g := graph.New()
	es := []element.Element{sc(1), sc(2), st(1), sc(3), sc(4), st(1), dn}
	s := Source(g, "src", shape.OfInts(2, 2), graph.ScalarType{}, es)
	p := Promote(g, "pr", s)
	cap := Capture(g, "cap", p)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,2,S1,3,4,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestPromoteEmptyStream(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(0), graph.ScalarType{}, []element.Element{dn})
	p := Promote(g, "pr", s)
	cap := Capture(g, "cap", p)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "D" {
		t.Fatalf("captured %s", got)
	}
}

func TestExpandFigure5(t *testing.T) {
	// Input [2,1,1], ref [2,Dr,2], rank 2: every input element repeats
	// across its ref subtree.
	g := graph.New()
	in := Source(g, "in", shape.OfInts(2, 1, 1), graph.ScalarType{},
		[]element.Element{sc(10), st(2), sc(20), st(2), dn})
	ref := Source(g, "ref", shape.New(shape.Static(2), shape.NamedRagged("Dr"), shape.Static(2)),
		graph.ScalarType{},
		[]element.Element{sc(0), sc(0), st(1), sc(0), sc(0), st(2), sc(0), sc(0), st(2), dn})
	e := Expand(g, "ex", in, ref, 2)
	cap := Capture(g, "cap", e)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "10,10,S1,10,10,S2,20,20,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestZip(t *testing.T) {
	g := graph.New()
	a := Source(g, "a", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(1), sc(2), dn})
	b := Source(g, "b", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(3), sc(4), dn})
	z := Zip(g, "z", a, b)
	cap := Capture(g, "cap", z)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "(1,3),(2,4),D" {
		t.Fatalf("captured %s", got)
	}
}

func TestZipMisalignmentFails(t *testing.T) {
	g := graph.New()
	a := Source(g, "a", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(1), sc(2), dn})
	b := Source(g, "b", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(3), st(1), dn})
	z := Zip(g, "z", a, b)
	Capture(g, "cap", z)
	if _, err := runGraph(g); err == nil {
		t.Fatal("expected misalignment error")
	}
}

func TestRepeatElems(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(2, 1), graph.ScalarType{},
		[]element.Element{sc(1), st(1), sc(2), st(1), dn})
	r := RepeatElems(g, "rep", s, 3)
	cap := Capture(g, "cap", r)
	sess := run(t, g)
	// Each element repeats 3x in a new inner dim; original S1 -> S2 and
	// subsumes the repeat group's S1.
	if got := fmtCap(sess, cap); got != "1,1,1,S2,2,2,2,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestRepeatShape(t *testing.T) {
	g := graph.New()
	s := Source(g, "src", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(1), sc(2), dn})
	r := RepeatElems(g, "rep", s, 2)
	if r.Shape.String() != "[2,2]" {
		t.Fatalf("shape %s", r.Shape)
	}
	cap := Capture(g, "cap", r)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "1,1,S1,2,2,S1,D" {
		t.Fatalf("captured %s", got)
	}
}

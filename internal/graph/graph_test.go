package graph

import (
	"strings"
	"testing"

	"step/internal/element"
	"step/internal/shape"
	"step/internal/symbolic"
)

// passOp is a minimal operator for builder tests.
type passOp struct{ name string }

func (o *passOp) Name() string                       { return o.name }
func (o *passOp) OnchipBytes() symbolic.Expr         { return symbolic.Const(10) }
func (o *passOp) OffchipTrafficBytes() symbolic.Expr { return symbolic.Const(100) }
func (o *passOp) AllocatedComputeBW() int64          { return 7 }

func (o *passOp) Run(ctx *Ctx) error {
	defer ctx.CloseOutputs()
	for i := range ctx.In {
		for {
			e, ok := ctx.In[i].Recv(ctx.P)
			if !ok {
				return nil
			}
			if e.Kind == element.Done {
				break
			}
			for _, out := range ctx.Out {
				out.Send(ctx.P, e)
			}
		}
	}
	return nil
}

// build creates src -> pass -> sink.
func buildChain(g *Graph) (*Stream, *Stream) {
	src := g.AddNode(&passOp{name: "src"})
	s1 := g.NewStream(src, shape.OfInts(1), ScalarType{})
	mid := g.AddNode(&passOp{name: "mid"}, s1)
	s2 := g.NewStream(mid, shape.OfInts(1), ScalarType{})
	g.AddNode(&passOp{name: "sink"}, s2)
	return s1, s2
}

func TestFinalizeCleanGraph(t *testing.T) {
	g := New()
	buildChain(g)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeReportsDangling(t *testing.T) {
	g := New()
	src := g.AddNode(&passOp{name: "src"})
	g.NewStream(src, shape.OfInts(1), ScalarType{})
	err := g.Finalize()
	if err == nil || !strings.Contains(err.Error(), "never consumed") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeReportsDoubleConsume(t *testing.T) {
	g := New()
	src := g.AddNode(&passOp{name: "src"})
	s := g.NewStream(src, shape.OfInts(1), ScalarType{})
	g.AddNode(&passOp{name: "a"}, s)
	g.AddNode(&passOp{name: "b"}, s)
	err := g.Finalize()
	if err == nil || !strings.Contains(err.Error(), "already consumed") {
		t.Fatalf("err = %v", err)
	}
}

func TestSymbolicSums(t *testing.T) {
	g := New()
	buildChain(g)
	if v, _ := g.SymbolicOnchipBytes().Eval(nil); v != 30 {
		t.Fatalf("onchip = %d", v)
	}
	if v, _ := g.SymbolicOffchipTrafficBytes().Eval(nil); v != 300 {
		t.Fatalf("traffic = %d", v)
	}
	if g.AllocatedComputeBW() != 21 {
		t.Fatalf("alloc = %d", g.AllocatedComputeBW())
	}
}

func TestDotOutput(t *testing.T) {
	g := New()
	buildChain(g)
	dot := g.Dot("test")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "mid") {
		t.Fatalf("dot = %s", dot)
	}
	if !strings.Contains(dot, "->") {
		t.Fatal("dot missing edges")
	}
}

func TestOverrides(t *testing.T) {
	g := New()
	src := g.AddNode(&passOp{name: "src"})
	s := g.NewStream(src, shape.OfInts(2, 3), StaticTile(1, 4))
	s.OverrideShape(shape.New(shape.Static(2), shape.NamedRagged("R")))
	if s.Shape.Dim(0).Kind != shape.Ragged {
		t.Fatal("override shape not applied")
	}
	// Rank-changing override is rejected.
	s.OverrideShape(shape.OfInts(1))
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "changes rank") {
		t.Fatalf("err = %v", err)
	}
	s.OverrideDType(ScalarType{})
	if _, ok := s.DType.(ScalarType); !ok {
		t.Fatal("override dtype not applied")
	}
}

func TestPaperRank(t *testing.T) {
	g := New()
	src := g.AddNode(&passOp{name: "src"})
	s := g.NewStream(src, shape.OfInts(2, 3, 4), ScalarType{})
	if s.PaperRank() != 2 {
		t.Fatalf("paper rank = %d", s.PaperRank())
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{
		Cycles:              100,
		TotalFLOPs:          5000,
		AllocatedComputeBW:  100,
		OffchipTrafficBytes: 1000,
	}
	if got := r.ComputeUtilization(); got != 0.5 {
		t.Fatalf("compute util = %f", got)
	}
	if got := r.OffchipBWUtilization(100); got != 0.1 {
		t.Fatalf("bw util = %f", got)
	}
	if got := r.OperationalIntensity(); got != 5 {
		t.Fatalf("oi = %f", got)
	}
	var zero Result
	if zero.ComputeUtilization() != 0 || zero.OffchipBWUtilization(10) != 0 || zero.OperationalIntensity() != 0 {
		t.Fatal("zero result should have zero utilizations")
	}
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	g := New()
	src := g.AddNode(&passOp{name: "src"})
	g.NewStream(src, shape.OfInts(1), ScalarType{})
	if _, _, err := g.run(DefaultConfig(), newBinding(g)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDTypeBytes(t *testing.T) {
	cases := []struct {
		dt   DType
		want int64
	}{
		{StaticTile(4, 8), 64},
		{SelectorType{N: 16}, 2},
		{ScalarType{}, 4},
		{FlagType{}, 1},
		{TupleType{A: ScalarType{}, B: FlagType{}}, 5},
		{BufferType{Elem: StaticTile(2, 2), Shape: shape.OfInts(3)}, 8},
	}
	for _, c := range cases {
		v, err := c.dt.Bytes().Eval(nil)
		if err != nil || v != c.want {
			t.Errorf("%s bytes = %d (%v), want %d", c.dt, v, err, c.want)
		}
	}
	bt := BufferType{Elem: StaticTile(2, 2), Shape: shape.OfInts(3)}
	v, err := bt.ContentsBytes().Eval(nil)
	if err != nil || v != 24 {
		t.Errorf("buffer contents = %d, want 24", v)
	}
}

func TestDynamicRowTile(t *testing.T) {
	tt := DynamicRowTile(symbolic.Sym("D"), 8)
	v, err := tt.Bytes().Eval(symbolic.Env{"D": 3})
	if err != nil || v != 48 {
		t.Fatalf("bytes = %d, %v", v, err)
	}
	if _, _, ok := tt.StaticDims(); ok {
		t.Fatal("dynamic tile reported static")
	}
}

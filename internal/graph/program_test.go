package graph_test

import (
	"errors"
	"sync"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/symbolic"
)

// buildDoubler builds a small graph with a custom closure (not
// IR-expressible): doubles 0..n-1 into a capture.
func buildDoubler(n int) (*graph.Graph, *ops.CaptureOp) {
	g := graph.New()
	in := ops.CountSource(g, "in", n)
	dbl := ops.Map(g, "double", in, ops.MapFn{
		Name: "double",
		Apply: func(v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: v.(element.Scalar).V * 2}, 1, nil
		},
	}, ops.ComputeOpts{ComputeBW: 1})
	cap := ops.Capture(g, "out", dbl)
	return g, cap
}

// TestGraphRunTwiceDeterministic: sequential re-runs of one compiled
// graph are legal and identical — per-run operator state (the capture)
// resets instead of accumulating, and the first session's snapshot is
// not disturbed.
func TestGraphRunTwiceDeterministic(t *testing.T) {
	g, _ := buildDoubler(8)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	got1, _ := s1.Captured("out")
	c1 := element.FormatStream(got1)
	s2, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := s2.Captured("out")
	c2 := element.FormatStream(got2)
	if s1.Result != s2.Result {
		t.Fatalf("re-run results differ: %+v vs %+v", s1.Result, s2.Result)
	}
	if c1 != c2 {
		t.Fatalf("re-run captures differ (stale state leaked):\n %s\n %s", c1, c2)
	}
	if n := element.CountData(got2); n != 8 {
		t.Fatalf("capture has %d data elements after 2 runs, want 8", n)
	}
	if first, _ := s1.Captured("out"); element.FormatStream(first) != c1 {
		t.Fatal("first session's capture changed after a re-run")
	}
}

// TestGraphMutationAfterCompile: structural mutation of a compiled
// graph is a recorded construction error surfacing on the next run (and
// on a repeated Compile).
func TestGraphMutationAfterCompile(t *testing.T) {
	g, _ := buildDoubler(2)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	extra := ops.CountSource(g, "late", 1)
	ops.Sink(g, "latesink", extra)
	if _, err := prog.Run(); err == nil {
		t.Fatal("run succeeded after post-compile mutation")
	}
	if _, err := g.Compile(); err == nil {
		t.Fatal("recompile succeeded after post-compile mutation")
	}
}

// TestCompileReturnsOneProgram: compiling a graph twice yields the same
// *Program, so runs through either handle serialize on one lock instead
// of racing on the shared operator instances.
func TestCompileReturnsOneProgram(t *testing.T) {
	g, _ := buildDoubler(16)
	p1, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Compile returned a different *Program")
	}
	base, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.Captured("out")
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := p1
			if i%2 == 1 {
				prog = p2
			}
			s, err := prog.Run(graph.WithSimWorkers(i % 3))
			if err != nil {
				errs[i] = err
				return
			}
			got, _ := s.Captured("out")
			if !s.Result.Equal(base.Result) || element.FormatStream(got) != element.FormatStream(want) {
				errs[i] = errors.New("mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

// TestProgramConcurrentRunsIR: concurrent runs of one IR-backed program
// are fully parallel and byte-identical.
func TestProgramConcurrentRunsIR(t *testing.T) {
	prog := buildFamily(t, "route")
	base, err := prog.Run(graph.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.Captured("out")
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := prog.Run(graph.WithSeed(3), graph.WithSimWorkers(i%3))
			if err != nil {
				errs[i] = err
				return
			}
			if !s.Result.Equal(base.Result) {
				errs[i] = errors.New("result mismatch")
				return
			}
			got, _ := s.Captured("out")
			if element.FormatStream(got) != element.FormatStream(want) {
				errs[i] = errors.New("capture mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

// TestProgramConcurrentRunsClosureBound: a program holding Go closures
// cannot re-instantiate, so its runs serialize — but stay legal and
// deterministic from any number of goroutines.
func TestProgramConcurrentRunsClosureBound(t *testing.T) {
	g, _ := buildDoubler(16)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base.Captured("out")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := prog.Run()
			if err != nil {
				errs[i] = err
				return
			}
			got, _ := s.Captured("out")
			if !s.Result.Equal(base.Result) || element.FormatStream(got) != element.FormatStream(want) {
				errs[i] = errors.New("mismatch")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

// TestRunOptions: functional options land in the session's effective
// config, and WithParams feeds the symbolic metric evaluation.
func TestRunOptions(t *testing.T) {
	prog := buildFamily(t, "higher")
	env := symbolic.Env{"F": 2}
	sess, err := prog.Run(
		graph.WithSeed(11),
		graph.WithSimWorkers(2),
		graph.WithChannelDepth(5),
		graph.WithParams(env),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sess.Config
	if cfg.Seed != 11 || cfg.SimWorkers != 2 || cfg.ChannelDepth != 5 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	// Both session evaluations equal the program's equations under the
	// same bindings.
	for _, c := range []struct {
		name string
		eval func() (int64, error)
		expr symbolic.Expr
	}{
		{"onchip", sess.OnchipRequirement, prog.OnchipBytesExpr()},
		{"offchip", sess.OffchipTrafficEq, prog.OffchipTrafficBytesExpr()},
	} {
		got, err := c.eval()
		if err != nil {
			t.Fatalf("%s eval: %v", c.name, err)
		}
		want, err := c.expr.Eval(env)
		if err != nil {
			t.Fatalf("%s expr eval: %v", c.name, err)
		}
		if got != want {
			t.Fatalf("%s: session %d, program expression %d", c.name, got, want)
		}
	}
	// Depth must not change the functional outcome.
	deep, err := prog.Run(graph.WithSeed(11), graph.WithChannelDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sess.Captured("out")
	b, _ := deep.Captured("out")
	if element.FormatStream(a) != element.FormatStream(b) {
		t.Fatal("channel depth changed functional output")
	}
}

// TestProgramSeedInstantiation: an IR program with seeded random
// content yields different data per run seed, and identical data for
// equal seeds.
func TestProgramSeedInstantiation(t *testing.T) {
	irJSON := []byte(`{
	  "version": "step-program/v1",
	  "name": "seeded",
	  "nodes": [
	    {"op": "source", "name": "in", "outputs": [{"id": 0}],
	     "attrs": {"shape": {"dims": [{"size": {"const": 2}}]},
	               "dtype": {"kind": "tile", "rows": {"size": {"const": 2}}, "cols": {"size": {"const": 2}}},
	               "elems": [
	                 {"value": {"tile": {"rows": 2, "cols": 2, "random": 0}}},
	                 {"value": {"tile": {"rows": 2, "cols": 2, "random": 1}}},
	                 {"done": true}]}},
	    {"op": "capture", "name": "out", "inputs": [0]}
	  ]
	}`)
	ir, err := graph.ParseProgramIR(irJSON)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := graph.CompileIR(ir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) [4]float32 {
		s, err := prog.Run(graph.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		es, _ := s.Captured("out")
		if len(es) == 0 || !es[0].IsData() {
			t.Fatalf("unexpected capture %s", element.FormatStream(es))
		}
		tl := es[0].Value.(element.TileVal).T
		return [4]float32{tl.At(0, 0), tl.At(0, 1), tl.At(1, 0), tl.At(1, 1)}
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatalf("equal seeds differ: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Fatal("different seeds produced identical random tiles")
	}
}

package graph_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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
// graph are legal and identical — each run records its own capture
// instead of accumulating into a shared one, and the first session's
// recording is not disturbed.
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
// *Program, and concurrent runs through either handle, on either engine,
// match a serial run.
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

// TestProgramConcurrentRunsGoBuilt: a Go-built program holding custom
// closures runs concurrently from any number of goroutines, and every
// run matches a serial one.
func TestProgramConcurrentRunsGoBuilt(t *testing.T) {
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

// TestProgramRunsOverlap: two concurrent Runs of one Go-built program
// are inside the same operator function at once. Each run's Map
// function waits at a two-party barrier, so runs serialized by a lock
// would time out there.
func TestProgramRunsOverlap(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	g := graph.New()
	in := ops.CountSource(g, "in", 1)
	met := ops.Map(g, "meet", in, ops.MapFn{
		Name: "meet",
		Apply: func(v element.Value) (element.Value, int64, error) {
			barrier.Done()
			both := make(chan struct{})
			go func() { barrier.Wait(); close(both) }()
			select {
			case <-both:
				return v, 1, nil
			case <-time.After(5 * time.Second):
				return nil, 0, errors.New("the other run never entered the operator function")
			}
		},
	}, ops.ComputeOpts{ComputeBW: 1})
	ops.Sink(g, "out", met)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = prog.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
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
// equal seeds, also when runs at different seeds interleave.
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
	tiles := func(seed uint64) ([4]float32, error) {
		s, err := prog.Run(graph.WithSeed(seed))
		if err != nil {
			return [4]float32{}, err
		}
		es, _ := s.Captured("out")
		if len(es) == 0 || !es[0].IsData() {
			return [4]float32{}, fmt.Errorf("unexpected capture %s", element.FormatStream(es))
		}
		tl := es[0].Value.(element.TileVal).T
		return [4]float32{tl.At(0, 0), tl.At(0, 1), tl.At(1, 0), tl.At(1, 1)}, nil
	}
	serial := map[uint64][4]float32{}
	for _, seed := range []uint64{7, 7, 8} {
		got, err := tiles(seed)
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := serial[seed]; ok && got != want {
			t.Fatalf("equal seeds differ: %v vs %v", want, got)
		}
		serial[seed] = got
	}
	if serial[7] == serial[8] {
		t.Fatal("different seeds produced identical random tiles")
	}
	errs := make([]error, 16)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(7 + i%2)
			got, err := tiles(seed)
			if err == nil && got != serial[seed] {
				err = fmt.Errorf("seed %d: tiles %v, serial run %v", seed, got, serial[seed])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}

// TestProgramSeedReachesEveryDecoder: every decoder holding seeded tile
// content (the linear-offchip-load tensor, the random-offchip-load
// table, the reshape pad; sources are covered above) re-derives it per
// run seed: equal seeds give equal tiles, different seeds different
// ones.
func TestProgramSeedReachesEveryDecoder(t *testing.T) {
	ir, err := graph.ParseProgramIR([]byte(`{
	  "version": "step-program/v1",
	  "name": "seeded-decoders",
	  "nodes": [
	    {"op": "count-source", "name": "n", "outputs": [{"id": 0}], "attrs": {"n": 1}},
	    {"op": "broadcast", "name": "bc", "inputs": [0], "outputs": [{"id": 1}, {"id": 2}], "attrs": {"k": 2}},
	    {"op": "linear-offchip-load", "name": "lin", "inputs": [1], "outputs": [{"id": 3}],
	     "attrs": {"tensor": {"tile": {"rows": 2, "cols": 2, "random": 0}, "tile_rows": 2, "tile_cols": 2},
	               "stride": [1, 1], "out_shape": [1, 1]}},
	    {"op": "capture", "name": "lin.out", "inputs": [3]},
	    {"op": "random-offchip-load", "name": "rnd", "inputs": [2], "outputs": [{"id": 4}],
	     "attrs": {"table": [{"rows": 2, "cols": 2, "random": 5}]}},
	    {"op": "reshape", "name": "pad", "inputs": [4], "outputs": [{"id": 5}, {"id": 6}],
	     "attrs": {"rank": 0, "chunk": 2, "pad": {"tile": {"rows": 2, "cols": 2, "random": 9}}}},
	    {"op": "capture", "name": "pad.out", "inputs": [5]},
	    {"op": "sink", "name": "pad.flags", "inputs": [6]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := graph.CompileIR(ir)
	if err != nil {
		t.Fatal(err)
	}
	// tiles renders the three seeded tiles of one run: the linear load's,
	// the random load's and the reshape pad.
	tiles := func(seed uint64) [3]string {
		s, err := prog.Run(graph.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, name := range []string{"lin.out", "pad.out"} {
			es, _ := s.Captured(name)
			for _, e := range es {
				if e.IsData() {
					out = append(out, fmt.Sprint(e.Value.(element.TileVal).T.Data))
				}
			}
		}
		if len(out) != 3 {
			t.Fatalf("seed %d: %d data tiles captured, want 3", seed, len(out))
		}
		return [3]string(out)
	}
	a, a2, b := tiles(7), tiles(7), tiles(8)
	for i, what := range []string{"linear-offchip-load tensor", "random-offchip-load table", "reshape pad"} {
		if a[i] != a2[i] {
			t.Errorf("%s: equal seeds differ", what)
		}
		if a[i] == b[i] {
			t.Errorf("%s: seeds 7 and 8 gave identical tiles", what)
		}
	}
}

// TestProgramRunRefusesZeroLatency: a zero channel latency would let a
// Select or Serialized decision depend on the engine, so Run refuses it
// on both engines and runs nothing.
func TestProgramRunRefusesZeroLatency(t *testing.T) {
	g, _ := buildDoubler(4)
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		s, err := prog.Run(graph.WithChannelLatency(0), graph.WithSimWorkers(workers))
		if err == nil || s != nil {
			t.Fatalf("workers=%d: Run with latency 0 = (%v, %v), want an error", workers, s, err)
		}
	}
	if _, err := prog.Run(graph.WithChannelLatency(2)); err != nil {
		t.Fatalf("latency 2: %v", err)
	}
}

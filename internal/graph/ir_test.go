package graph_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// scalars builds a well-formed element sequence from a compact spec:
// non-negative ints are scalar data, -n is the stop token S_n, and the
// trailing Done is appended.
func scalars(vals ...int) []element.Element {
	es := make([]element.Element, 0, len(vals)+1)
	for _, v := range vals {
		if v < 0 {
			es = append(es, element.StopOf(-v))
		} else {
			es = append(es, element.DataOf(element.Scalar{V: int64(v)}))
		}
	}
	return append(es, element.DoneElem)
}

// dataTiles builds a source stream of 2x2 data-carrying tiles with
// deterministic contents.
func dataTiles(seed float32, n int) []element.Element {
	es := make([]element.Element, 0, n+1)
	for i := 0; i < n; i++ {
		t := tile.New(2, 2)
		for j := range t.Data {
			t.Data[j] = seed + float32(i) + float32(j)/4
		}
		es = append(es, element.DataOf(element.TileVal{T: t}))
	}
	return append(es, element.DoneElem)
}

// irFamilies builds one IR-expressible program per operator family.
// Each program must compile and run on both engines; the golden test
// round-trips them through testdata/ir/<name>.json.
var irFamilies = []struct {
	name  string
	build func(g *graph.Graph)
}{
	{"sources", func(g *graph.Graph) {
		in := ops.CountSource(g, "in", 6)
		fan := ops.Broadcast(g, "fan", in, 2)
		fan[0].SetDepth(4)
		first := ops.Take(g, "first3", fan[0], 3)
		ops.Capture(g, "out", first)
		ops.Sink(g, "drop", fan[1])
		// A relay fed by a node that appears later in insertion order:
		// the IR decoder attaches the feed in its deferred phase.
		h, rout := ops.Relay(g, "loop", graph.ScalarType{}, shape.OfInts(3))
		ops.Capture(g, "rcap", rout)
		feed := ops.CountSource(g, "feed", 3)
		ops.RelayFeed(g, h, feed)
	}},
	{"offchip", func(g *graph.Graph) {
		backing := tile.New(4, 4)
		for i := range backing.Data {
			backing.Data[i] = float32(i)
		}
		tensor, err := ops.NewOffChipTensor(backing, 2, 2)
		if err != nil {
			panic(err)
		}
		loaded := ops.LinearOffChipLoadStatic(g, "load", 1, tensor, [2]int{2, 1}, [2]int{2, 2})
		ops.LinearOffChipStore(g, "store", loaded)

		table := []*tile.Tile{tile.Filled(2, 2, 1), tile.Filled(2, 2, 2)}
		raddr := ops.Source(g, "raddrs", shape.OfInts(2), graph.ScalarType{}, scalars(0, 1))
		tiles := ops.RandomOffChipLoad(g, "rload", raddr, table)
		waddr := ops.Source(g, "waddrs", shape.OfInts(2), graph.ScalarType{}, scalars(1, 0))
		ack, _ := ops.RandomOffChipStore(g, "rstore", waddr, tiles)
		ops.Sink(g, "acks", ack)
	}},
	{"onchip", func(g *graph.Graph) {
		src := ops.Source(g, "tiles", shape.OfInts(2, 2), graph.StaticTile(2, 2),
			[]element.Element{
				dataTiles(0, 2)[0], dataTiles(0, 2)[1], element.StopOf(1),
				dataTiles(4, 2)[0], dataTiles(4, 2)[1], element.DoneElem,
			})
		bufs := ops.Bufferize(g, "buf", src, 1)
		out := ops.StreamifyLinear(g, "sfy", bufs)
		ops.Capture(g, "out", out)

		// Reference-driven linear read: one pass per reference element.
		src2 := ops.Source(g, "tiles2", shape.OfInts(2, 2), graph.StaticTile(2, 2),
			[]element.Element{
				dataTiles(1, 2)[0], dataTiles(1, 2)[1], element.StopOf(1),
				dataTiles(5, 2)[0], dataTiles(5, 2)[1], element.DoneElem,
			})
		bufs2 := ops.Bufferize(g, "buf2", src2, 1)
		ref := ops.Source(g, "ref", shape.OfInts(2, 1), graph.ScalarType{}, scalars(0, -1, 0, -1))
		out2 := ops.Streamify(g, "sfy2", bufs2, ref, nil, nil)
		ops.Sink(g, "drain2", out2)

		// Affine read over a fully-static buffered region.
		src3 := ops.Source(g, "tiles3", shape.OfInts(2, 2), graph.StaticTile(2, 2),
			[]element.Element{
				dataTiles(2, 2)[0], dataTiles(2, 2)[1], element.StopOf(1),
				dataTiles(6, 2)[0], dataTiles(6, 2)[1], element.DoneElem,
			})
		bufs3 := ops.Bufferize(g, "buf3", src3, 1)
		ref3 := ops.Source(g, "ref3", shape.OfInts(2), graph.ScalarType{}, scalars(0, 0))
		stride, outShape := [2]int{2, 1}, [2]int{1, 2}
		out3 := ops.Streamify(g, "sfy3", bufs3, ref3, &stride, &outShape)
		ops.Sink(g, "drain3", out3)
	}},
	{"route", func(g *graph.Graph) {
		in := ops.Source(g, "in", shape.OfInts(4), graph.ScalarType{}, scalars(10, 11, 12, 13))
		sel := ops.Source(g, "sel", shape.OfInts(4), graph.SelectorType{N: 2},
			[]element.Element{
				element.DataOf(element.NewSelector(2, 0)),
				element.DataOf(element.NewSelector(2, 1)),
				element.DataOf(element.NewSelector(2, 0)),
				element.DataOf(element.NewSelector(2, 1)),
				element.DoneElem,
			})
		parts := ops.Partition(g, "part", in, sel, 0, 2)
		data, srcSel := ops.EagerMerge(g, "merge", parts)
		ops.Capture(g, "out", data)
		ops.Sink(g, "selout", srcSel)

		a := ops.Source(g, "ra", shape.OfInts(2), graph.ScalarType{}, scalars(1, 2))
		b := ops.Source(g, "rb", shape.OfInts(2), graph.ScalarType{}, scalars(3, 4))
		rsel := ops.Source(g, "rsel", shape.OfInts(4), graph.SelectorType{N: 2},
			[]element.Element{
				element.DataOf(element.NewSelector(2, 0)),
				element.DataOf(element.NewSelector(2, 1)),
				element.DataOf(element.NewSelector(2, 0)),
				element.DataOf(element.NewSelector(2, 1)),
				element.DoneElem,
			})
		merged := ops.Reassemble(g, "gather", []*graph.Stream{a, b}, rsel, 0)
		ops.Capture(g, "rout", merged)
	}},
	{"higher", func(g *graph.Graph) {
		a := ops.Source(g, "a", shape.OfInts(2), graph.StaticTile(2, 2), dataTiles(1, 2))
		b := ops.Source(g, "b", shape.OfInts(2), graph.StaticTile(2, 2), dataTiles(2, 2))
		z := ops.Zip(g, "zip", a, b)
		mm := ops.Map(g, "mm", z, ops.MatmulFn(),
			ops.MatmulOpts(64, symbolic.Const(2), symbolic.Const(8), symbolic.Const(8), false))
		pm := ops.Promote(g, "pm", mm)
		acc := ops.Accum(g, "acc", pm, 1, ops.ElemAddFn(), ops.ComputeOpts{ComputeBW: 32})
		fm := ops.FlatMap(g, "fm", acc, 1, ops.RetileStreamifyFn(1),
			[]shape.Dim{shape.NamedRagged("F"), shape.Static(2)})
		ops.Capture(g, "out", fm)

		c := ops.Source(g, "c", shape.OfInts(2, 2), graph.StaticTile(2, 2),
			[]element.Element{
				dataTiles(0, 2)[0], dataTiles(0, 2)[1], element.StopOf(1),
				dataTiles(3, 2)[0], dataTiles(3, 2)[1], element.DoneElem,
			})
		sc := ops.Scan(g, "scan", c, 1, ops.ElemAddFn(), ops.ComputeOpts{ComputeBW: 16})
		ops.Sink(g, "scansink", sc)
	}},
	{"shapeops", func(g *graph.Graph) {
		in := ops.Source(g, "in", shape.OfInts(2, 3), graph.ScalarType{},
			scalars(1, 2, 3, -1, 4, 5, 6))
		fl := ops.Flatten(g, "fl", in, 0, 1)
		data, pad := ops.Reshape(g, "rs", fl, 0, 4, element.Scalar{V: 0})
		ops.Sink(g, "pad", pad)
		pm := ops.Promote(g, "pm", data)
		ops.Capture(g, "out", pm)

		small := ops.Source(g, "small", shape.OfInts(2, 1), graph.ScalarType{},
			scalars(7, -1, 8))
		ref := ops.Source(g, "ref", shape.OfInts(2, 3), graph.ScalarType{},
			scalars(0, 0, 0, -1, 0, 0, 0))
		ex := ops.Expand(g, "ex", small, ref, 1)
		rp := ops.RepeatElems(g, "rp", ex, 2)
		ops.Capture(g, "exout", rp)
	}},
}

func buildFamily(t *testing.T, name string) *graph.Program {
	t.Helper()
	for _, f := range irFamilies {
		if f.name == name {
			g := graph.New()
			f.build(g)
			p, err := g.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			return p
		}
	}
	t.Fatalf("unknown family %s", name)
	return nil
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "ir", name+".json")
}

// checkIRGolden compares canonical IR bytes, indented, with the golden
// testdata/ir/<name>.json (rewriting it under -update) and returns the
// golden's bytes.
func checkIRGolden(t *testing.T, name string, canonical []byte) []byte {
	t.Helper()
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, canonical, "", "  "); err != nil {
		t.Fatalf("indent: %v", err)
	}
	pretty.WriteByte('\n')
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(fileBytes, pretty.Bytes()) {
		t.Fatalf("golden mismatch for %s (run with -update after intended changes)", path)
	}
	return fileBytes
}

// TestProgramIRGolden round-trips one program per operator family
// through the committed golden IR files: the Go-built program's
// canonical IR must match the file, loading the file must rebuild a
// program with the same canonical IR and hash, and both forms must
// simulate to identical results on both DES engines.
func TestProgramIRGolden(t *testing.T) {
	for _, f := range irFamilies {
		f := f
		t.Run(f.name, func(t *testing.T) {
			prog := buildFamily(t, f.name)
			irGo, err := prog.IR()
			if err != nil {
				t.Fatalf("IR: %v", err)
			}
			canonical, err := irGo.CanonicalJSON()
			if err != nil {
				t.Fatalf("canonical: %v", err)
			}
			fileBytes := checkIRGolden(t, f.name, canonical)

			// Load -> compile -> re-encode must reproduce the canonical bytes.
			irFile, err := graph.ParseProgramIR(fileBytes)
			if err != nil {
				t.Fatalf("parse golden: %v", err)
			}
			progFile, err := graph.CompileIR(irFile)
			if err != nil {
				t.Fatalf("compile golden: %v", err)
			}
			canonical2, err := progFile.CanonicalJSON()
			if err != nil {
				t.Fatalf("canonical(file): %v", err)
			}
			if !bytes.Equal(canonical, canonical2) {
				t.Fatalf("round-trip canonical mismatch:\n go:   %s\n file: %s", canonical, canonical2)
			}
			hGo, _ := prog.Hash()
			hFile, _ := progFile.Hash()
			if hGo == "" || hGo != hFile {
				t.Fatalf("hash mismatch: %q vs %q", hGo, hFile)
			}

			// The Go-built (closure-bound) program and the IR-instantiated
			// program must simulate identically, on both engines.
			for _, sw := range []int{1, 4} {
				sGo, err := prog.Run(graph.WithSeed(7), graph.WithSimWorkers(sw))
				if err != nil {
					t.Fatalf("run go (sw=%d): %v", sw, err)
				}
				sFile, err := progFile.Run(graph.WithSeed(7), graph.WithSimWorkers(sw))
				if err != nil {
					t.Fatalf("run file (sw=%d): %v", sw, err)
				}
				if !sGo.Result.Equal(sFile.Result) {
					t.Fatalf("sw=%d: results differ: %+v vs %+v", sw, sGo.Result, sFile.Result)
				}
				for _, name := range sGo.CaptureNames() {
					a, _ := sGo.Captured(name)
					b, ok := sFile.Captured(name)
					if !ok {
						t.Fatalf("capture %q missing from IR run", name)
					}
					if element.FormatStream(a) != element.FormatStream(b) {
						t.Fatalf("capture %q differs:\n %s\n %s", name,
							element.FormatStream(a), element.FormatStream(b))
					}
				}
			}
		})
	}
}

// TestOpTable holds every registered op kind to the op table's
// contract: a committed testdata/ir golden (so FuzzProgramIR's seed
// corpus) has a node of the kind, every such node's attrs re-encode
// byte-identically after decoding, and an irFamilies program builds a
// node of the kind in Go that encodes under the kind's name.
func TestOpTable(t *testing.T) {
	canon := func(raw json.RawMessage) string {
		if raw == nil {
			return ""
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(v)
		return string(b)
	}
	inGolden := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join("testdata", "ir", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("goldens: %v", err)
	}
	for _, path := range paths {
		ir, err := graph.LoadProgramIR(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := graph.CompileIR(ir)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		re, err := prog.IR()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", path, err)
		}
		for i, n := range ir.Nodes {
			inGolden[n.Op] = true
			got := re.Nodes[i]
			if got.Op != n.Op || got.Name != n.Name || canon(got.Attrs) != canon(n.Attrs) {
				t.Errorf("%s: %s node %q re-encodes as %s %q %s, want attrs %s",
					path, n.Op, n.Name, got.Op, got.Name, got.Attrs, n.Attrs)
			}
		}
	}
	goBuilt := map[string]bool{}
	for _, f := range irFamilies {
		ir, err := buildFamily(t, f.name).IR()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ir.Nodes {
			goBuilt[n.Op] = true
		}
	}
	kinds := graph.RegisteredIROps()
	if len(kinds) == 0 {
		t.Fatal("no registered op kinds")
	}
	for _, kind := range kinds {
		if !inGolden[kind] {
			t.Errorf("op %q has no node in any testdata/ir golden", kind)
		}
		if !goBuilt[kind] {
			t.Errorf("op %q: no irFamilies program builds a node of it", kind)
		}
	}
}

// TestProgramIRInexpressible verifies that a custom closure keeps the
// program runnable but not serializable, with a diagnostic naming the
// node.
func TestProgramIRInexpressible(t *testing.T) {
	g := graph.New()
	in := ops.CountSource(g, "in", 4)
	dbl := ops.Map(g, "double", in, ops.MapFn{
		Name: "double",
		Apply: func(v element.Value) (element.Value, int64, error) {
			return element.Scalar{V: v.(element.Scalar).V * 2}, 1, nil
		},
	}, ops.ComputeOpts{ComputeBW: 1})
	ops.Capture(g, "out", dbl)
	p, err := g.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := p.IR(); err == nil {
		t.Fatal("IR() succeeded for a program with a custom closure")
	} else if want := "double"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("IR error %q does not name node %q", err, want)
	}
	if _, err := p.Run(graph.WithSeed(1)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestProgramIRMaterializationBudget: a small document whose fill/random
// tiles demand more than the program-wide budget must fail at load —
// the amplification guard for the serving path.
func TestProgramIRMaterializationBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"version":"step-program/v1","nodes":[{"op":"source","name":"in","outputs":[{"id":0}],"attrs":{` +
		`"shape":{"dims":[{"size":{"const":17}}]},` +
		`"dtype":{"kind":"tile","rows":{"size":{"const":512}},"cols":{"size":{"const":512}}},"elems":[`)
	for i := 0; i < 17; i++ { // 17 * 512*512 = 4.46M > MaxIRProgramTileElems (4.19M)
		fmt.Fprintf(&b, `{"value":{"tile":{"rows":512,"cols":512,"fill":1}}},`)
	}
	b.WriteString(`{"done":true}]}},{"op":"sink","name":"s","inputs":[0]}]}`)
	ir, err := graph.ParseProgramIR([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.CompileIR(ir); err == nil {
		t.Fatal("program exceeding the materialization budget compiled")
	} else if want := "materializes more than"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention the budget", err)
	}
}

// FuzzProgramIR mirrors scenario.FuzzSpecJSON for programs: any parsed
// IR that compiles must canonicalize stably — load, canonicalize, load
// again, canonicalize again, and the bytes and hash must agree.
func FuzzProgramIR(f *testing.F) {
	dir := filepath.Join("testdata", "ir")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus (run tests with -update first): %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		ir, err := graph.ParseProgramIR(data)
		if err != nil {
			return
		}
		prog, err := graph.CompileIR(ir)
		if err != nil {
			return
		}
		c1, err := prog.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical after successful compile: %v", err)
		}
		ir2, err := graph.ParseProgramIR(c1)
		if err != nil {
			t.Fatalf("canonical bytes do not re-parse: %v\n%s", err, c1)
		}
		prog2, err := graph.CompileIR(ir2)
		if err != nil {
			t.Fatalf("canonical bytes do not re-compile: %v\n%s", err, c1)
		}
		c2, err := prog2.CanonicalJSON()
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization unstable:\n c1: %s\n c2: %s", c1, c2)
		}
		h1, _ := prog.Hash()
		h2, _ := prog2.Hash()
		if h1 != h2 {
			t.Fatalf("hash unstable: %s vs %s", h1, h2)
		}
	})
}

// TestProgramDotGolden pins the DOT rendering of a small program.
func TestProgramDotGolden(t *testing.T) {
	ir, err := graph.LoadProgramIR(goldenPath("sources"))
	if err != nil {
		t.Fatalf("load (run with -update first): %v", err)
	}
	prog, err := graph.CompileIR(ir)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Dot("sources")
	path := filepath.Join("testdata", "dot", "sources.dot")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("DOT mismatch (run with -update after intended changes):\n%s", got)
	}
}

// TestExprIRFirstErrorStable pins the decode order of expression kinds:
// an invalid multi-kind expression must report the same first error on
// every run. The add branch holds an empty (invalid) sub-expression; the
// mul branch holds a chain deep enough to exhaust the node budget. If
// decode order ever regressed to map iteration, the reported error would
// flip between the two messages across iterations.
func TestExprIRFirstErrorStable(t *testing.T) {
	deep := graph.ExprIR{Sym: "x"}
	for i := 0; i < 300; i++ {
		deep = graph.ExprIR{Add: []graph.ExprIR{deep}}
	}
	e := &graph.ExprIR{
		Add: []graph.ExprIR{{}}, // invalid: sets none of const/sym/...
		Mul: []graph.ExprIR{deep},
	}
	const want = "ir: expr must set exactly one of const/sym/add/mul/ceildiv/max"
	for i := 0; i < 200; i++ {
		_, err := graph.ExprFromIR(e)
		if err == nil {
			t.Fatal("expected decode error")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: first error changed:\ngot  %q\nwant %q", i, err, want)
		}
	}
}

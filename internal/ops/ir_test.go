package ops

import (
	"encoding/json"
	"fmt"
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
)

// loadWithAttrs compiles the program build makes, replaces the attrs of
// its node node in the program's IR with attrs, and returns the error
// of loading that IR.
func loadWithAttrs(t *testing.T, build func(g *graph.Graph), node, attrs string) error {
	t.Helper()
	g := graph.New()
	build(g)
	p, err := g.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ir, err := p.IR()
	if err != nil {
		t.Fatalf("IR: %v", err)
	}
	found := false
	for i := range ir.Nodes {
		if ir.Nodes[i].Name == node {
			ir.Nodes[i].Attrs, found = json.RawMessage(attrs), true
		}
	}
	if !found {
		t.Fatalf("no node %q", node)
	}
	_, err = graph.CompileIR(ir)
	return err
}

// sinkAll drains every stream.
func sinkAll(g *graph.Graph, ss []*graph.Stream) {
	for i, s := range ss {
		Sink(g, fmt.Sprintf("s%d", i), s)
	}
}

// rankSource is a one-element source of the given stream rank.
func rankSource(g *graph.Graph, name string, rank int, dt graph.DType, v element.Value) *graph.Stream {
	dims := make([]int, rank)
	for i := range dims {
		dims[i] = 1
	}
	return Source(g, name, shape.OfInts(dims...), dt, []element.Element{element.DataOf(v), dn})
}

// TestOpAttrsRefusedAtEncode: a Go-built node whose attrs lie past a
// loader bound compiles and runs, but Program.IR refuses it with the
// message loading those attrs gives, so every IR a program emits loads
// again.
func TestOpAttrsRefusedAtEncode(t *testing.T) {
	sel := func(g *graph.Graph, rank int) *graph.Stream {
		return rankSource(g, "sel", rank, graph.SelectorType{N: 2}, element.Selector{N: 2, Indices: []int{0}})
	}
	cases := []struct {
		name, node, attrs string
		build             func(g *graph.Graph, v int) // v: the attr under test
		valid, past       int
	}{
		{"broadcast k", "fan", `{"k":65537}`, func(g *graph.Graph, k int) {
			sinkAll(g, Broadcast(g, "fan", CountSource(g, "in", 1), k))
		}, 2, graph.MaxIRFanout + 1},
		{"partition num", "part", `{"r":1,"num":65537}`, func(g *graph.Graph, num int) {
			sinkAll(g, Partition(g, "part", rankSource(g, "in", 2, graph.ScalarType{}, element.Scalar{}), sel(g, 1), 1, num))
		}, 2, graph.MaxIRFanout + 1},
		{"partition r", "part", `{"r":33,"num":2}`, func(g *graph.Graph, r int) {
			sinkAll(g, Partition(g, "part", rankSource(g, "in", r+1, graph.ScalarType{}, element.Scalar{}), sel(g, 1), r, 2))
		}, 1, graph.MaxIRRank + 1},
		{"reassemble a", "re", `{"a":33}`, func(g *graph.Graph, a int) {
			in := rankSource(g, "in", a+1, graph.ScalarType{}, element.Scalar{})
			Sink(g, "s", Reassemble(g, "re", []*graph.Stream{in}, sel(g, 1), a))
		}, 1, graph.MaxIRRank + 1},
		{"flatmap b", "fm", `{"b":33,"fn":{"name":"retile-streamify","arg":1},"inner_dims":[]}`, func(g *graph.Graph, b int) {
			dims := make([]shape.Dim, b+1)
			for i := range dims {
				dims[i] = shape.Static(1)
			}
			Sink(g, "s", FlatMap(g, "fm", CountSource(g, "in", 1), b, RetileStreamifyFn(1), dims))
		}, 1, graph.MaxIRRank + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loadErr := loadWithAttrs(t, func(g *graph.Graph) { c.build(g, c.valid) }, c.node, c.attrs)
			if loadErr == nil {
				t.Fatalf("attrs %s loaded", c.attrs)
			}
			g := graph.New()
			c.build(g, c.past)
			p, err := g.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, err := p.IR(); err == nil || err.Error() != loadErr.Error() {
				t.Fatalf("IR() = %v, want the loader's %q", err, loadErr)
			}
		})
	}
}

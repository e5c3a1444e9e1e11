package ops

import (
	"strings"
	"testing"
	"testing/quick"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
)

// selElem builds a selector data element over n streams.
func selElem(n int, idx ...int) element.Element {
	return element.DataOf(element.NewSelector(n, idx...))
}

func TestPartitionRoutesRows(t *testing.T) {
	// MoE-style: [4,1] rows routed to 2 experts by a [4] selector.
	g := graph.New()
	in := Source(g, "in", shape.OfInts(4, 1), graph.ScalarType{},
		[]element.Element{sc(10), st(1), sc(20), st(1), sc(30), st(1), sc(40), st(1), dn})
	sel := Source(g, "sel", shape.OfInts(4), graph.SelectorType{N: 2},
		[]element.Element{selElem(2, 0), selElem(2, 1), selElem(2, 0), selElem(2, 0), dn})
	outs := Partition(g, "part", in, sel, 1, 2)
	cap0 := Capture(g, "c0", outs[0])
	cap1 := Capture(g, "c1", outs[1])
	sess := run(t, g)
	if got := fmtCap(sess, cap0); got != "10,S1,30,S1,40,S1,D" {
		t.Fatalf("expert0 %s", got)
	}
	if got := fmtCap(sess, cap1); got != "20,S1,D" {
		t.Fatalf("expert1 %s", got)
	}
}

// Node names need not be unique, so two same-named Partitions must still
// name their ragged output dims apart: a shared symbol would equate two
// unrelated extents in the §4.2 equations.
func TestSameNamedPartitionsGetDistinctRaggedDims(t *testing.T) {
	g := graph.New()
	var outs []*graph.Stream
	for i := 0; i < 2; i++ {
		in := Source(g, "in", shape.OfInts(2, 1), graph.ScalarType{}, []element.Element{sc(1), st(1), sc(2), st(1), dn})
		sel := Source(g, "sel", shape.OfInts(2), graph.SelectorType{N: 2}, []element.Element{selElem(2, 0), selElem(2, 1), dn})
		outs = append(outs, Partition(g, "part", in, sel, 1, 2)...)
	}
	seen := map[string]bool{}
	for _, o := range outs {
		d := o.Shape.Outer()
		if d.Kind != shape.Ragged {
			t.Fatalf("partition output %s: outer dim not ragged", o.Shape)
		}
		if seen[d.Size.String()] {
			t.Fatalf("ragged symbol %s shared by two partition outputs", d.Size)
		}
		seen[d.Size.String()] = true
	}
}

func TestPartitionMultiHotCopies(t *testing.T) {
	g := graph.New()
	in := Source(g, "in", shape.OfInts(2, 1), graph.ScalarType{},
		[]element.Element{sc(1), st(1), sc(2), st(1), dn})
	sel := Source(g, "sel", shape.OfInts(2), graph.SelectorType{N: 2},
		[]element.Element{selElem(2, 0, 1), selElem(2, 1), dn})
	outs := Partition(g, "part", in, sel, 1, 2)
	cap0 := Capture(g, "c0", outs[0])
	cap1 := Capture(g, "c1", outs[1])
	sess := run(t, g)
	if got := fmtCap(sess, cap0); got != "1,S1,D" {
		t.Fatalf("out0 %s", got)
	}
	if got := fmtCap(sess, cap1); got != "1,S1,2,S1,D" {
		t.Fatalf("out1 %s", got)
	}
}

func TestPartitionRankZero(t *testing.T) {
	// Rank-0 routing: single elements, no separators on outputs.
	g := graph.New()
	in := Source(g, "in", shape.OfInts(3), graph.ScalarType{},
		[]element.Element{sc(1), sc(2), sc(3), dn})
	sel := Source(g, "sel", shape.OfInts(3), graph.SelectorType{N: 2},
		[]element.Element{selElem(2, 1), selElem(2, 0), selElem(2, 1), dn})
	outs := Partition(g, "part", in, sel, 0, 2)
	cap0 := Capture(g, "c0", outs[0])
	cap1 := Capture(g, "c1", outs[1])
	sess := run(t, g)
	if got := fmtCap(sess, cap0); got != "2,D" {
		t.Fatalf("out0 %s", got)
	}
	if got := fmtCap(sess, cap1); got != "1,3,D" {
		t.Fatalf("out1 %s", got)
	}
}

func TestPartitionSubtreeRankTwo(t *testing.T) {
	// [2,2,1] input partitioned at rank 2: each selector element routes a
	// whole [2,1] subtree.
	g := graph.New()
	in := Source(g, "in", shape.OfInts(2, 2, 1), graph.ScalarType{},
		[]element.Element{sc(1), st(1), sc(2), st(2), sc(3), st(1), sc(4), st(2), dn})
	sel := Source(g, "sel", shape.OfInts(2), graph.SelectorType{N: 2},
		[]element.Element{selElem(2, 1), selElem(2, 0), dn})
	outs := Partition(g, "part", in, sel, 2, 2)
	cap0 := Capture(g, "c0", outs[0])
	cap1 := Capture(g, "c1", outs[1])
	sess := run(t, g)
	if got := fmtCap(sess, cap1); got != "1,S1,2,S2,D" {
		t.Fatalf("out1 %s", got)
	}
	if got := fmtCap(sess, cap0); got != "3,S1,4,S2,D" {
		t.Fatalf("out0 %s", got)
	}
}

func TestReassembleFigure4(t *testing.T) {
	// Fig. 4: selector (0,7)-style merge with arrival ordering. We use 3
	// inputs; input 2 arrives later than input 0 for the multi-hot group.
	g := graph.New()
	in0 := Source(g, "in0", shape.New(shape.NamedRagged("A"), shape.NamedRagged("a")),
		graph.ScalarType{}, []element.Element{sc(1), sc(2), st(1), dn})
	in1 := Source(g, "in1", shape.New(shape.NamedRagged("B"), shape.NamedRagged("b")),
		graph.ScalarType{}, []element.Element{sc(3), st(1), dn})
	in2 := Source(g, "in2", shape.New(shape.NamedRagged("C"), shape.NamedRagged("c")),
		graph.ScalarType{}, []element.Element{sc(4), sc(5), st(1), dn})
	sel := Source(g, "sel", shape.OfInts(2), graph.SelectorType{N: 3},
		[]element.Element{selElem(3, 0, 2), selElem(3, 1), dn})
	out := Reassemble(g, "re", []*graph.Stream{in0, in1, in2}, sel, 1)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	// Group 1 collects inputs 0 and 2 (S1 between subtrees, S2 closes the
	// group); group 2 collects input 1.
	got := fmtCap(sess, cap)
	if got != "1,2,S1,4,5,S2,3,S2,D" && got != "4,5,S1,1,2,S2,3,S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestReassembleSelectorStops(t *testing.T) {
	// A rank-1 selector stream adds its own dims above the group dim.
	g := graph.New()
	in0 := Source(g, "in0", shape.New(shape.NamedRagged("A"), shape.NamedRagged("a")),
		graph.ScalarType{}, []element.Element{sc(1), st(1), sc(2), st(1), dn})
	sel := Source(g, "sel", shape.OfInts(2, 1), graph.SelectorType{N: 1},
		[]element.Element{selElem(1, 0), st(1), selElem(1, 0), st(1), dn})
	out := Reassemble(g, "re", []*graph.Stream{in0}, sel, 1)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	// Each group: body + S2 (incremented); selector S1 -> S3.
	if got := fmtCap(sess, cap); got != "1,S3,2,S3,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestEagerMergeArrivalOrder(t *testing.T) {
	// Input 1's data is delayed behind a slow upstream; EagerMerge must
	// take input 0 first even though input 1 was listed first.
	g := graph.New()
	fast := Source(g, "fast", shape.New(shape.NamedRagged("F"), shape.NamedRagged("f")),
		graph.ScalarType{}, []element.Element{sc(1), st(1), sc(2), st(1), dn})
	slowRaw := Source(g, "slowRaw", shape.OfInts(1, 1), graph.ScalarType{},
		[]element.Element{sc(9), st(1), dn})
	// Delay via a chain of Maps (each adds a cycle).
	slow := slowRaw
	for i := 0; i < 5; i++ {
		slow = Map(g, "delay", slow, MapFn{
			Name:  "id",
			Apply: func(v element.Value) (element.Value, int64, error) { return v, 0, nil },
		}, ComputeOpts{})
	}
	data, sel := EagerMerge(g, "merge", []*graph.Stream{slow, fast})
	capD := Capture(g, "capD", data)
	capS := Capture(g, "capS", sel)
	sess := run(t, g)
	gotD := fmtCap(sess, capD)
	gotS := fmtCap(sess, capS)
	if gotD != "1,S1,2,S1,9,S1,D" {
		t.Fatalf("data %s (sel %s)", gotD, gotS)
	}
	if gotS != "(1),(1),(0),D" {
		t.Fatalf("sel %s", gotS)
	}
}

func TestEagerMergeConservation(t *testing.T) {
	// Property: every subtree appears exactly once, with a matching
	// selector entry.
	f := func(n0, n1 uint8) bool {
		a, b := int(n0%5), int(n1%5)
		g := graph.New()
		mk := func(name string, n int, base int64) *graph.Stream {
			var es []element.Element
			for i := 0; i < n; i++ {
				es = append(es, sc(base+int64(i)), st(1))
			}
			es = append(es, dn)
			return Source(g, name, shape.New(shape.NamedRagged(name), shape.NamedRagged(name+"i")),
				graph.ScalarType{}, es)
		}
		sA := mk("A", a, 100)
		sB := mk("B", b, 200)
		data, sel := EagerMerge(g, "m", []*graph.Stream{sA, sB})
		capD := Capture(g, "capD", data)
		capS := Capture(g, "capS", sel)
		sess, err := runGraph(g)
		if err != nil {
			return false
		}
		nData := element.CountData(captured(sess, capD))
		nSel := element.CountData(captured(sess, capS))
		return nData == a+b && nSel == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Partition followed by Reassemble with the same selector is the identity
// on the routed data (the MoE route/merge pattern of Fig. 7).
func TestQuickPartitionReassembleRoundTrip(t *testing.T) {
	f := func(seed uint8, n8 uint8) bool {
		n := int(n8%6) + 1
		nExperts := 3
		var inEs []element.Element
		var selEs []element.Element
		for i := 0; i < n; i++ {
			inEs = append(inEs, sc(int64(i+1)), st(1))
			selEs = append(selEs, selElem(nExperts, int(seed+uint8(i*7))%nExperts))
		}
		inEs = append(inEs, dn)
		selEs = append(selEs, dn)

		g := graph.New()
		in := Source(g, "in", shape.OfInts(n, 1), graph.ScalarType{}, inEs)
		sel := Source(g, "sel", shape.OfInts(n), graph.SelectorType{N: nExperts}, selEs)
		sels := Broadcast(g, "selbc", sel, 2)
		parts := Partition(g, "part", in, sels[0], 1, nExperts)
		out := Reassemble(g, "re", parts, sels[1], 1)
		cap := Capture(g, "cap", out)
		sess, err := runGraph(g)
		if err != nil {
			return false
		}
		// Data comes back in original order (each group has one subtree),
		// with S2 group closers.
		var want strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				want.WriteString(",")
			}
			want.WriteString(element.FormatStream([]element.Element{sc(int64(i + 1))}))
			want.WriteString(",S2")
		}
		want.WriteString(",D")
		return fmtCap(sess, cap) == want.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

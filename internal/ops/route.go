package ops

import (
	"fmt"

	"step/internal/des"
	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
)

// partitionOp routes rank-r subtrees of the input to data-dependently
// selected output streams (§3.2.3).
type partitionOp struct {
	base
	r   int
	num int
}

// Partition routes data up to the first S_r from the input stream to the
// output streams selected by each multi-hot selector element. r is the
// partition rank (the rank of each routed subtree); the selector stream's
// shape must match the input stream's outer dims above r.
func Partition(g *graph.Graph, name string, in, sel *graph.Stream, r, numConsumers int) []*graph.Stream {
	if numConsumers < 1 {
		g.Errf("%s: numConsumers must be >= 1", name)
		numConsumers = 1
	}
	a := in.PaperRank()
	if r < 0 || r > a {
		g.Errf("%s: partition rank %d out of range for input rank %d", name, r, a)
	}
	if _, ok := sel.DType.(graph.SelectorType); !ok {
		g.Errf("%s: selector stream must carry selectors, got %s", name, sel.DType)
	}
	wantSelDims := a - r + 1
	if sel.Shape.Rank() != wantSelDims {
		g.Errf("%s: selector shape %s must have %d dims (input %s outer dims above rank %d)",
			name, sel.Shape, wantSelDims, in.Shape, r)
	}
	op := &partitionOp{base: newBase(name), r: r, num: numConsumers}
	n := g.AddNode(op, in, sel)
	partitionKind.set(n, partitionAttrs{R: r, Num: numConsumers})
	inner, err := in.Shape.Inner(r)
	if err != nil {
		g.Errf("%s: %v", name, err)
	}
	outs := make([]*graph.Stream, numConsumers)
	for i := range outs {
		outs[i] = g.NewStream(n, shape.Concat(shape.New(shape.NamedRagged(raggedName(n, i))), inner), in.DType)
	}
	return outs
}

func (o *partitionOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	var body []element.Element
	for {
		se, ok := recvTracked(ctx, 1)
		if !ok {
			return fmt.Errorf("%s: selector closed without Done", o.name)
		}
		switch se.Kind {
		case element.Done:
			// Drain the input's trailing tokens.
			for {
				ie, ok := ctx.In[0].Recv(ctx.P)
				if !ok || ie.Kind == element.Done {
					return nil
				}
			}
		case element.Stop:
			// Selector stops mirror input stops that were already consumed
			// as subtree closers (consumeSelectorStops); reaching here
			// means the streams are misaligned.
			return fmt.Errorf("%s: unexpected selector stop %s (misaligned with input)", o.name, se)
		default:
			selv, err := mustData(o.name, se)
			if err != nil {
				return err
			}
			selector, ok := selv.(element.Selector)
			if !ok {
				return fmt.Errorf("%s: selector stream carried %T", o.name, selv)
			}
			st, hasBody, err := readSubtree(ctx, 0, o.r, &body)
			if err != nil {
				return err
			}
			if !hasBody && st.closer.Kind == element.Done {
				return fmt.Errorf("%s: input exhausted before selector stream", o.name)
			}
			for _, idx := range selector.Indices {
				if idx >= o.num {
					return fmt.Errorf("%s: selector index %d >= %d consumers", o.name, idx, o.num)
				}
				sendAll(ctx, idx, st.body)
				if o.r >= 1 {
					tick(ctx)
					ctx.Out[idx].Send(ctx.P, element.StopOf(o.r))
				}
			}
			// If the subtree's closer also closed enclosing dims, the next
			// selector token(s) will be the matching stops; the closer
			// itself carries no extra output.
			if st.closer.Kind == element.Stop && st.closer.Level > o.r {
				// Push back semantics are unnecessary: the selector stream
				// mirrors the closure with its own stop, which we consume
				// in the Stop case above — but we already consumed the
				// input's stop here. Remember it to validate then.
				if err := o.consumeSelectorStops(ctx, st.closer.Level-o.r); err != nil {
					return err
				}
			}
		}
	}
}

// consumeSelectorStops consumes the selector stop that mirrors an input
// stop of level r+level which was already consumed as a subtree closer.
func (o *partitionOp) consumeSelectorStops(ctx *graph.Ctx, level int) error {
	se, ok := recvTracked(ctx, 1)
	if !ok {
		return fmt.Errorf("%s: selector closed without Done", o.name)
	}
	if se.Kind != element.Stop || se.Level != level {
		return fmt.Errorf("%s: expected selector stop S%d, got %s", o.name, level, se)
	}
	return nil
}

// reassembleOp merges rank-a subtrees from many inputs per selector
// (§3.2.3, Fig. 4).
type reassembleOp struct {
	base
	a int // input stream rank (the reassemble rank)
}

// Reassemble merges data from the input streams based on the selector
// stream. All inputs must have the same rank a (the reassemble rank). On
// every multi-hot selector element, one rank-a subtree is collected from
// each selected input, in the order input data becomes available; the
// group is closed by an incremented stop token.
func Reassemble(g *graph.Graph, name string, ins []*graph.Stream, sel *graph.Stream, a int) *graph.Stream {
	if len(ins) == 0 {
		g.Errf("%s: reassemble needs inputs", name)
		return nil
	}
	for _, in := range ins {
		if in.PaperRank() != a {
			g.Errf("%s: input rank %d != reassemble rank %d", name, in.PaperRank(), a)
		}
	}
	if _, ok := sel.DType.(graph.SelectorType); !ok {
		g.Errf("%s: selector stream must carry selectors, got %s", name, sel.DType)
	}
	op := &reassembleOp{base: newBase(name), a: a}
	args := append(append([]*graph.Stream{}, ins...), sel)
	n := g.AddNode(op, args...)
	reassembleKind.set(n, reassembleAttrs{A: a})
	// Output shape: [sel dims..., D^sel (new dynamic dim), inner a dims].
	inner, err := ins[0].Shape.Inner(a)
	if err != nil {
		g.Errf("%s: %v", name, err)
	}
	group := shape.Concat(sel.Shape, shape.New(shape.NamedRagged(raggedName(n, 0))))
	return g.NewStream(n, shape.Concat(group, inner), ins[0].DType)
}

func (o *reassembleOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	nIn := len(ctx.In) - 1
	selCh := len(ctx.In) - 1
	w := newStopWriter(ctx, 0)
	var body []element.Element
	var remaining []int
	var sels []des.Selectable
	for {
		se, ok := recvTracked(ctx, selCh)
		if !ok {
			return fmt.Errorf("%s: selector closed without Done", o.name)
		}
		switch se.Kind {
		case element.Done:
			w.flush()
			for i := 0; i < nIn; i++ {
				for {
					e, ok := ctx.In[i].Recv(ctx.P)
					if !ok || e.Kind == element.Done {
						break
					}
				}
			}
			return nil
		case element.Stop:
			w.stop(se.Level + o.a + 1)
		default:
			selv, err := mustData(o.name, se)
			if err != nil {
				return err
			}
			selector, ok := selv.(element.Selector)
			if !ok {
				return fmt.Errorf("%s: selector stream carried %T", o.name, selv)
			}
			if len(selector.Indices) == 0 {
				return fmt.Errorf("%s: empty selector", o.name)
			}
			remaining = append(remaining[:0], selector.Indices...)
			for len(remaining) > 0 {
				// Collect from whichever selected input has data first.
				sels = sels[:0]
				for _, idx := range remaining {
					if idx >= nIn {
						return fmt.Errorf("%s: selector index %d >= %d inputs", o.name, idx, nIn)
					}
					sels = append(sels, ctx.In[idx])
				}
				win := des.Select(ctx.P, sels...)
				if win < 0 {
					return fmt.Errorf("%s: selected inputs %v all closed", o.name, remaining)
				}
				src := remaining[win]
				remaining = append(remaining[:win], remaining[win+1:]...)
				st, hasBody, err := readSubtree(ctx, src, o.a, &body)
				if err != nil {
					return err
				}
				if !hasBody && st.closer.Kind == element.Done {
					return fmt.Errorf("%s: input %d exhausted during merge", o.name, src)
				}
				for _, be := range st.body {
					if be.IsData() {
						w.data(be)
					} else {
						w.stop(be.Level)
					}
				}
				if len(remaining) == 0 {
					// Last selected input: increment the stop token to add
					// the new group dimension.
					w.stop(o.a + 1)
				} else if o.a >= 1 {
					w.stop(o.a)
				}
			}
		}
	}
}

// eagerMergeOp merges subtrees in arrival order, emitting a selector
// stream recording the source of each chunk (§3.2.3).
type eagerMergeOp struct {
	base
	a int
}

// EagerMerge merges rank-a subtrees from the inputs in the order they
// become available. The first output is the merged data stream; the second
// is a selector stream identifying the source input of each chunk.
func EagerMerge(g *graph.Graph, name string, ins []*graph.Stream) (data, sel *graph.Stream) {
	if len(ins) == 0 {
		g.Errf("%s: eager merge needs inputs", name)
		return nil, nil
	}
	a := ins[0].PaperRank()
	for _, in := range ins {
		if in.PaperRank() != a {
			g.Errf("%s: input ranks differ: %d vs %d", name, in.PaperRank(), a)
		}
	}
	op := &eagerMergeOp{base: newBase(name), a: a}
	n := g.AddNode(op, ins...)
	eagerMergeKind.set(n, noAttrs{})
	// Output data shape: [ΣD^i_a, inner a dims].
	inner, err := ins[0].Shape.Inner(a)
	if err != nil {
		g.Errf("%s: %v", name, err)
	}
	data = g.NewStream(n, shape.Concat(shape.New(shape.NamedRagged(raggedName(n, 0))), inner), ins[0].DType)
	sel = g.NewStream(n, shape.New(shape.NamedRagged(raggedName(n, 1))), graph.SelectorType{N: len(ins)})
	return data, sel
}

func (o *eagerMergeOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	n := len(ctx.In)
	done := make([]bool, n)
	live := n
	var body []element.Element
	sels := make([]des.Selectable, 0, n)
	idxs := make([]int, 0, n)
	for live > 0 {
		sels, idxs = sels[:0], idxs[:0]
		for i := 0; i < n; i++ {
			if !done[i] {
				sels = append(sels, ctx.In[i])
				idxs = append(idxs, i)
			}
		}
		w := des.Select(ctx.P, sels...)
		if w < 0 {
			break
		}
		src := idxs[w]
		st, hasBody, err := readSubtree(ctx, src, o.a, &body)
		if err != nil {
			return err
		}
		if st.closer.Kind == element.Done {
			done[src] = true
			live--
			if !hasBody {
				continue
			}
		}
		sendAll(ctx, 0, st.body)
		if o.a >= 1 {
			tick(ctx)
			ctx.Out[0].Send(ctx.P, element.StopOf(o.a))
		}
		tick(ctx)
		ctx.Out[1].Send(ctx.P, element.DataOf(element.NewSelector(n, src)))
	}
	return nil
}

// Package ops implements every STeP operator (paper §3.2, Tables 3–7):
// off-chip memory operators, on-chip memory operators, dynamic routing and
// merging operators, higher-order operators, and shape operators. Each
// operator is a dataflow block: its Run method executes as an asynchronous
// DES process that consumes input channels and produces output channels,
// modeling both the functional semantics and the cycle-approximate timing
// of §4.3.
package ops

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/symbolic"
)

// base provides the Operator bookkeeping shared by all ops.
type base struct {
	name      string
	onchip    symbolic.Expr
	traffic   symbolic.Expr
	computeBW int64
}

func newBase(name string) base {
	return base{name: name, onchip: symbolic.Zero, traffic: symbolic.Zero}
}

// Name implements graph.Operator.
func (b *base) Name() string { return b.name }

// OnchipBytes implements graph.Operator.
func (b *base) OnchipBytes() symbolic.Expr { return b.onchip }

// OffchipTrafficBytes implements graph.Operator.
func (b *base) OffchipTrafficBytes() symbolic.Expr { return b.traffic }

// AllocatedComputeBW implements graph.Operator.
func (b *base) AllocatedComputeBW() int64 { return b.computeBW }

// raggedName names the ragged dim node n introduces on output port. The
// node's index keeps two same-named nodes from sharing a symbol, so the
// name depends on the program's structure alone: a decoded program prints
// the same shapes and §4.2 equations as its Go-built original.
func raggedName(n *graph.Node, port int) string {
	return fmt.Sprintf("%s#%d.%d", n.Op.Name(), n.ID, port)
}

// reseed returns an operator's content for this run: v, or its
// re-derivation for the run seed when the IR decoder attached one
// (content that drew seeded random tiles; see graph.Seeded).
func reseed[T any](ctx *graph.Ctx, v T, at func(uint64) T) T {
	if at == nil {
		return v
	}
	return at(ctx.Seed)
}

// tick models one initiation interval of the operator's hardware unit.
func tick(ctx *graph.Ctx) { ctx.P.Advance(1) }

// recvTracked receives from input i, counting elements.
func recvTracked(ctx *graph.Ctx, i int) (element.Element, bool) {
	e, ok := ctx.In[i].Recv(ctx.P)
	if ok {
		if e.IsData() {
			ctx.Counters.AddDataElem()
		} else if e.Kind == element.Stop {
			ctx.Counters.AddStopToken()
		}
	}
	return e, ok
}

// subtree is the body of one rank-r tensor read from a stream: the data
// and sub-stop elements strictly below the closing token.
type subtree struct {
	body []element.Element
	// closer is the token that ended the subtree: a Stop with level >= r,
	// or Done.
	closer element.Element
}

// readSubtree reads one rank-r subtree from input i. For r >= 1 a subtree
// is a maximal run of data elements and stop tokens with level < r,
// terminated by a stop token of level >= r or by Done. For r == 0 a
// subtree is a single data element. ok is false when the stream was
// already exhausted (the first element read is Done and no body).
func readSubtree(ctx *graph.Ctx, i, r int) (subtree, bool, error) {
	var st subtree
	if r == 0 {
		e, ok := recvTracked(ctx, i)
		if !ok {
			return st, false, fmt.Errorf("input %d closed without Done token", i)
		}
		switch e.Kind {
		case element.Done:
			st.closer = e
			return st, false, nil
		case element.Stop:
			return st, false, fmt.Errorf("input %d: unexpected stop %s in rank-0 stream", i, e)
		default:
			st.body = append(st.body, e)
			return st, true, nil
		}
	}
	// The drain loop never advances time between elements, which is exactly
	// the shape RecvUntil accelerates: consecutive already-visible elements
	// are dequeued without a scheduler round-trip each, with a virtual-time
	// trace identical to per-element Recv. Counters are summed locally and
	// added in bulk (order-free, so the totals match the per-element path).
	var data, stops int64
	chanOK := ctx.In[i].RecvUntil(ctx.P, func(e element.Element) bool {
		switch e.Kind {
		case element.Done:
			st.closer = e
			return false
		case element.Stop:
			stops++
			if e.Level >= r {
				st.closer = e
				return false
			}
			st.body = append(st.body, e)
			return true
		default:
			data++
			st.body = append(st.body, e)
			return true
		}
	})
	if data > 0 {
		ctx.Counters.AddDataElems(data)
	}
	if stops > 0 {
		ctx.Counters.AddStopTokens(stops)
	}
	if !chanOK {
		return st, false, fmt.Errorf("input %d closed without Done token", i)
	}
	if st.closer.Kind == element.Done && len(st.body) == 0 {
		return st, false, nil
	}
	return st, true, nil
}

// sendAll writes a sequence of elements to output o, one tick each.
func sendAll(ctx *graph.Ctx, o int, es []element.Element) {
	for _, e := range es {
		tick(ctx)
		ctx.Out[o].Send(ctx.P, e)
	}
}

// stopWriter emits a stream while merging coincident stop tokens: when
// several dimension closures coincide, only the highest-level stop token
// is emitted (§3.1). Ops queue stops with stop() and the writer defers
// them until the next data element (or flushes at end of stream),
// upgrading the pending level when a higher closure follows.
type stopWriter struct {
	ctx     *graph.Ctx
	out     int
	pending int // 0 = none
}

func newStopWriter(ctx *graph.Ctx, out int) *stopWriter {
	return &stopWriter{ctx: ctx, out: out}
}

func (w *stopWriter) data(e element.Element) {
	w.flush()
	tick(w.ctx)
	w.ctx.Out[w.out].Send(w.ctx.P, e)
}

func (w *stopWriter) stop(level int) {
	if level > w.pending {
		w.pending = level
	}
}

func (w *stopWriter) flush() {
	if w.pending > 0 {
		tick(w.ctx)
		w.ctx.Out[w.out].Send(w.ctx.P, element.StopOf(w.pending))
		w.pending = 0
	}
}

// mustData asserts the element is data and returns its value.
func mustData(op string, e element.Element) (element.Value, error) {
	if !e.IsData() {
		return nil, fmt.Errorf("%s: expected data element, got %s", op, e)
	}
	return e.Value, nil
}

package ops

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
)

// sourceOp emits a fixed element sequence.
type sourceOp struct {
	base
	elems   []element.Element
	elemsAt func(seed uint64) []element.Element
}

// Source creates a stream from a literal element sequence (ending in Done).
// It models data already present at the fabric edge, e.g. activations
// arriving from a previous fused region.
func Source(g *graph.Graph, name string, sh shape.Shape, dt graph.DType, elems []element.Element) *graph.Stream {
	if err := element.ValidateStream(elems); err != nil {
		g.Errf("%s: %v", name, err)
	}
	op := &sourceOp{base: newBase(name), elems: elems}
	n := g.AddNode(op)
	// The IR attrs convert lazily at encode time (see sourceAttrsLazy):
	// element values without a wire form (buffer references, custom
	// values) surface as an encode error naming this node.
	n.SetIR("source", sourceAttrsLazy{sh: sh, dt: dt, elems: elems})
	return g.NewStream(n, sh, dt)
}

func (o *sourceOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	for _, e := range reseed(ctx, o.elems, o.elemsAt) {
		if e.Kind == element.Done {
			break
		}
		tick(ctx)
		ctx.Out[0].Send(ctx.P, e)
	}
	return nil
}

// CountSource emits a rank-0 stream of n scalar trigger elements — the
// static variant of a reference stream (paper footnote: "All STeP
// operators with an input reference stream have a static variant").
func CountSource(g *graph.Graph, name string, n int) *graph.Stream {
	elems := make([]element.Element, 0, n+1)
	for i := 0; i < n; i++ {
		elems = append(elems, element.DataOf(element.Scalar{V: int64(i)}))
	}
	elems = append(elems, element.DoneElem)
	out := Source(g, name, shape.OfInts(n), graph.ScalarType{}, elems)
	// Replace the inner source description with the compact form — but
	// only inside the loader's bound, so the IR stays loadable (larger
	// counts keep the verbose literal-source form).
	if n >= 0 && n <= graph.MaxIRCount {
		out.Producer().SetIR("count-source", countSourceAttrs{N: n})
	}
	return out
}

// CaptureOp is a sink that records every element it receives; tests and
// examples read a run's recording with Session.Captured(name).
type CaptureOp struct{ base }

// Capture attaches a recording sink to the stream. Capture names are
// unique per graph: sessions look captured streams up by name.
func Capture(g *graph.Graph, name string, in *graph.Stream) *CaptureOp {
	for _, n := range g.Nodes() {
		if c, ok := n.Op.(*CaptureOp); ok && c.name == name {
			g.Errf("duplicate capture name %q", name)
		}
	}
	op := &CaptureOp{base: newBase(name)}
	g.AddNode(op, in).SetIR("capture", nil)
	return op
}

func (o *CaptureOp) Run(ctx *graph.Ctx) error {
	var got []element.Element
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		tick(ctx)
		got = append(got, e)
		if e.Kind == element.Done {
			ctx.Record(got)
			return nil
		}
	}
}

// sinkOp drains a stream without recording it.
type sinkOp struct{ base }

// Sink discards a stream (models results consumed by a downstream fused
// region outside this graph).
func Sink(g *graph.Graph, name string, in *graph.Stream) {
	op := &sinkOp{base: newBase(name)}
	g.AddNode(op, in).SetIR("sink", nil)
}

func (o *sinkOp) Run(ctx *graph.Ctx) error {
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		tick(ctx)
		if e.Kind == element.Done {
			return nil
		}
	}
}

// broadcastOp copies its input to k outputs.
type broadcastOp struct {
	base
	k int
}

// Broadcast fans a stream out to k identical streams. SDA fabrics
// implement this by replicating the FIFO write; STeP graphs need it
// because streams are single-consumer.
func Broadcast(g *graph.Graph, name string, in *graph.Stream, k int) []*graph.Stream {
	if k < 1 {
		g.Errf("%s: broadcast needs k >= 1", name)
		k = 1
	}
	op := &broadcastOp{base: newBase(name), k: k}
	n := g.AddNode(op, in)
	if k <= graph.MaxIRFanout {
		n.SetIR("broadcast", broadcastAttrs{K: k})
	}
	outs := make([]*graph.Stream, k)
	for i := range outs {
		outs[i] = g.NewStream(n, in.Shape.Clone(), in.DType)
	}
	return outs
}

func (o *broadcastOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			return nil
		}
		tick(ctx)
		for _, out := range ctx.Out {
			out.Send(ctx.P, e)
		}
	}
}

// takeOp forwards the first n data elements of a rank-0 stream, then
// drains the remainder. Dynamic-parallelization selector loops (Fig. 16)
// use it to cap the feedback-generated selector stream at the batch size.
type takeOp struct {
	base
	n int
}

// Take passes through the first n data elements and drains the rest.
func Take(g *graph.Graph, name string, in *graph.Stream, n int) *graph.Stream {
	if in.Shape.Rank() != 1 {
		g.Errf("%s: take requires a rank-0 stream, got %s", name, in.Shape)
	}
	op := &takeOp{base: newBase(name), n: n}
	node := g.AddNode(op, in)
	node.SetIR("take", takeAttrs{N: n})
	return g.NewStream(node, shape.OfInts(n), in.DType)
}

func (o *takeOp) Run(ctx *graph.Ctx) error {
	// The output terminates as soon as n elements have passed — Take sits
	// on feedback loops, so downstream must be released while the
	// remaining (in-flight) feedback elements are still draining.
	seen := 0
	closed := false
	closeNow := func() {
		if !closed {
			ctx.CloseOutputs()
			closed = true
		}
	}
	defer closeNow()
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			if seen < o.n {
				return fmt.Errorf("%s: input ended after %d of %d elements", o.name, seen, o.n)
			}
			return nil
		}
		if !e.IsData() {
			continue
		}
		if seen < o.n {
			tick(ctx)
			ctx.Out[0].Send(ctx.P, e)
		}
		seen++
		if seen == o.n {
			closeNow()
		}
	}
}

// relayOp forwards its (late-attached) input to its output. Relays close
// feedback cycles: the relay node and its output stream are created before
// the upstream producer exists, and RelayFeed attaches the producer later.
type relayOp struct{ base }

// RelayHandle names a relay awaiting its feed stream.
type RelayHandle struct{ node *graph.Node }

// Relay creates a pass-through node whose input is attached later with
// RelayFeed. The output stream carries the given type and shape.
func Relay(g *graph.Graph, name string, dt graph.DType, sh shape.Shape) (*RelayHandle, *graph.Stream) {
	op := &relayOp{base: newBase(name)}
	n := g.AddNode(op)
	if dtIR, err := graph.DTypeToIR(dt); err == nil {
		n.SetIR("relay", relayAttrs{DType: *dtIR, Shape: *graph.ShapeToIR(sh)})
	}
	out := g.NewStream(n, sh, dt)
	return &RelayHandle{node: n}, out
}

// RelayFeed attaches the relay's input stream, closing the cycle.
func RelayFeed(g *graph.Graph, h *RelayHandle, in *graph.Stream) {
	g.AttachInput(h.node, in)
}

func (o *relayOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	if len(ctx.In) != 1 {
		return fmt.Errorf("%s: relay was never fed (call RelayFeed)", o.name)
	}
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			return nil
		}
		tick(ctx)
		ctx.Out[0].Send(ctx.P, e)
	}
}

// symCard returns the symbolic cardinality of a stream's shape times its
// dtype size — the ||stream|| × |dtype| term of §4.2.
func symCard(s *graph.Stream) symbolic.Expr {
	return symbolic.Mul(s.Shape.Cardinality(), s.DType.Bytes())
}

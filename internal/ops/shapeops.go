package ops

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
)

// flattenOp merges dims [min, max] by rewriting stop tokens (§3.2.5).
type flattenOp struct {
	base
	min, max int
}

// Flatten merges the dimension range [min, max] (inner-indexed, inclusive)
// of the input stream into one dimension. Stop tokens with level <= min
// pass through, levels in (min, max] are removed, and higher levels shift
// down by max-min.
func Flatten(g *graph.Graph, name string, in *graph.Stream, min, max int) *graph.Stream {
	outShape, err := in.Shape.Flatten(min, max)
	if err != nil {
		g.Errf("%s: %v", name, err)
		outShape = in.Shape
	}
	op := &flattenOp{base: newBase(name), min: min, max: max}
	n := g.AddNode(op, in)
	flattenKind.set(n, flattenAttrs{Min: min, Max: max})
	return g.NewStream(n, outShape, in.DType)
}

func (o *flattenOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	delta := o.max - o.min
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			return nil
		}
		tick(ctx)
		if e.Kind == element.Stop {
			switch {
			case e.Level <= o.min:
				ctx.Out[0].Send(ctx.P, e)
			case e.Level <= o.max:
				// Interior separator of the merged dimension: dropped.
			default:
				ctx.Out[0].Send(ctx.P, element.StopOf(e.Level-delta))
			}
			continue
		}
		ctx.Out[0].Send(ctx.P, e)
	}
}

// reshapeOp splits a dimension into fixed-size chunks, padding the
// innermost dimension when needed (§3.2.5).
type reshapeOp struct {
	base
	rank  int
	chunk int
	pad   element.Value
	padAt func(seed uint64) element.Value
}

// Reshape splits dimension `rank` (inner-indexed) into chunks of size
// chunk. When rank == 0 the innermost dimension is split and, when a pad
// value is given, the final chunk is padded; the second output stream
// flags padded elements. A nil pad leaves the final chunk short (a ragged
// chunk dimension) — the capacity-bounded dynamic-tiling schedule uses
// this to emit dynamically-sized tiles of at most `chunk` rows. When
// rank > 0 the dimension must be static and divisible.
func Reshape(g *graph.Graph, name string, in *graph.Stream, rank, chunk int, pad element.Value) (data, padding *graph.Stream) {
	outShape, err := in.Shape.Reshape(rank, chunk)
	if err != nil {
		g.Errf("%s: %v", name, err)
		outShape = in.Shape
	}
	op := &reshapeOp{base: newBase(name), rank: rank, chunk: chunk, pad: pad}
	n := g.AddNode(op, in)
	attrs := reshapeAttrs{Rank: rank, Chunk: chunk}
	serializable := true
	if pad != nil {
		if padIR, err := graph.ValueToIR(pad); err == nil {
			attrs.Pad = padIR
		} else {
			serializable = false
		}
	}
	if serializable {
		reshapeKind.set(n, attrs)
	}
	data = g.NewStream(n, outShape, in.DType)
	padding = g.NewStream(n, outShape.Clone(), graph.FlagType{})
	return data, padding
}

func (o *reshapeOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	if o.rank == 0 {
		return o.runInner(ctx, reseed(ctx, o.pad, o.padAt))
	}
	return o.runOuter(ctx)
}

// runInner splits the element dimension, inserting S1 separators every
// chunk elements and padding the final partial chunk.
func (o *reshapeOp) runInner(ctx *graph.Ctx, pad element.Value) error {
	emit := func(e element.Element, padded bool) {
		tick(ctx)
		ctx.Out[0].Send(ctx.P, e)
		ctx.Out[1].Send(ctx.P, element.DataOf(element.Flag{B: padded}))
		if padded {
			ctx.Counters.AddPaddedElem()
		}
	}
	emitStop := func(l int) {
		tick(ctx)
		ctx.Out[0].Send(ctx.P, element.StopOf(l))
		ctx.Out[1].Send(ctx.P, element.StopOf(l))
	}
	inChunk := 0
	pendingClose := false // a full chunk awaits its S1 (or a subsuming stop)
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			if inChunk > 0 {
				for ; pad != nil && inChunk < o.chunk; inChunk++ {
					emit(element.DataOf(pad), true)
				}
				pendingClose = true
			}
			if pendingClose {
				emitStop(1)
			}
			return nil
		case element.Stop:
			// Close the current (possibly partial) chunk; the input stop
			// subsumes the chunk's S1 (only the highest stop is emitted).
			if inChunk > 0 {
				for ; pad != nil && inChunk < o.chunk; inChunk++ {
					emit(element.DataOf(pad), true)
				}
				inChunk = 0
			}
			pendingClose = false
			emitStop(e.Level + 1)
		default:
			if pendingClose {
				emitStop(1)
				pendingClose = false
			}
			emit(e, false)
			inChunk++
			if inChunk == o.chunk {
				inChunk = 0
				pendingClose = true
			}
		}
	}
}

// runOuter splits dimension o.rank > 0: every chunk-th stop of that level
// is promoted to level+1, and higher stops shift up by one.
func (o *reshapeOp) runOuter(ctx *graph.Ctx) error {
	count := 0
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			return nil
		}
		tick(ctx)
		out := func(x element.Element) {
			ctx.Out[0].Send(ctx.P, x)
			ctx.Out[1].Send(ctx.P, x)
		}
		if e.Kind == element.Stop {
			switch {
			case e.Level < o.rank:
				out(e)
			case e.Level == o.rank:
				count++
				if count == o.chunk {
					count = 0
					out(element.StopOf(e.Level + 1))
				} else {
					out(e)
				}
			default:
				count = 0
				out(element.StopOf(e.Level + 1))
			}
			continue
		}
		ctx.Out[0].Send(ctx.P, e)
		ctx.Out[1].Send(ctx.P, element.DataOf(element.Flag{B: false}))
	}
}

// promoteOp adds a new outermost dimension (§3.2.5).
type promoteOp struct {
	base
	oldDims int
}

// Promote adds an outermost dimension of extent 1 (0 for an empty stream).
func Promote(g *graph.Graph, name string, in *graph.Stream) *graph.Stream {
	op := &promoteOp{base: newBase(name), oldDims: in.Shape.Rank()}
	n := g.AddNode(op, in)
	promoteKind.set(n, noAttrs{})
	return g.NewStream(n, in.Shape.Promote(), in.DType)
}

func (o *promoteOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	// One-element lookahead: the input's final stop token is subsumed by
	// the new outermost dimension's stop (only the highest stop level is
	// emitted at a multi-dimension boundary).
	var held element.Element
	haveHeld := false
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			if haveHeld {
				tick(ctx)
				if held.Kind == element.Stop {
					ctx.Out[0].Send(ctx.P, element.StopOf(o.oldDims))
				} else {
					ctx.Out[0].Send(ctx.P, held)
					tick(ctx)
					ctx.Out[0].Send(ctx.P, element.StopOf(o.oldDims))
				}
			}
			return nil
		}
		if haveHeld {
			tick(ctx)
			ctx.Out[0].Send(ctx.P, held)
		}
		held, haveHeld = e, true
	}
}

// expandOp repeats each input element per the reference structure (Fig. 5).
type expandOp struct {
	base
	rank int
}

// Expand repeats each element of in (whose inner `rank` dims are extent 1)
// across the corresponding rank-`rank` subtree of the reference stream.
// The output has the reference stream's shape with in's data type.
func Expand(g *graph.Graph, name string, in, ref *graph.Stream, rank int) *graph.Stream {
	outShape, err := in.Shape.Expand(ref.Shape, rank)
	if err != nil {
		g.Errf("%s: %v", name, err)
		outShape = ref.Shape
	}
	op := &expandOp{base: newBase(name), rank: rank}
	n := g.AddNode(op, in, ref)
	expandKind.set(n, expandAttrs{Rank: rank})
	// On-chip requirement: |output dtype| (§4.2) — the held element.
	op.onchip = in.DType.Bytes()
	return g.NewStream(n, outShape, in.DType)
}

func (o *expandOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	var cur element.Element
	haveCur := false
	nextInput := func() error {
		// Consume elements until the next data element; the input's inner
		// dims are extent 1, so stops (level >= rank) separate elements.
		for {
			e, ok := recvTracked(ctx, 0)
			if !ok {
				return fmt.Errorf("%s: input closed without Done", o.name)
			}
			switch e.Kind {
			case element.Done:
				return fmt.Errorf("%s: reference stream longer than input stream", o.name)
			case element.Stop:
				continue
			default:
				cur, haveCur = e, true
				return nil
			}
		}
	}
	for {
		e, ok := recvTracked(ctx, 1)
		if !ok {
			return fmt.Errorf("%s: ref closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			// Drain the input's trailing tokens.
			for {
				ie, ok := ctx.In[0].Recv(ctx.P)
				if !ok || ie.Kind == element.Done {
					return nil
				}
			}
		case element.Stop:
			tick(ctx)
			ctx.Out[0].Send(ctx.P, e)
			if e.Level >= o.rank {
				haveCur = false // next data element needs a fresh input
			}
		default:
			if !haveCur {
				if err := nextInput(); err != nil {
					return err
				}
			}
			tick(ctx)
			ctx.Out[0].Send(ctx.P, cur)
		}
	}
}

// zipOp pairs two equal-shaped streams into one tuple stream (§3.2.5).
type zipOp struct{ base }

// Zip groups two streams with the same shape into a stream of tuples.
func Zip(g *graph.Graph, name string, a, b *graph.Stream) *graph.Stream {
	if !shape.Compatible(a.Shape, b.Shape) && !shape.Compatible(b.Shape, a.Shape) {
		g.Errf("%s: zip shape mismatch %s vs %s", name, a.Shape, b.Shape)
	}
	op := &zipOp{base: newBase(name)}
	n := g.AddNode(op, a, b)
	zipKind.set(n, noAttrs{})
	return g.NewStream(n, a.Shape.Clone(), graph.TupleType{A: a.DType, B: b.DType})
}

func (o *zipOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	for {
		ea, okA := recvTracked(ctx, 0)
		eb, okB := recvTracked(ctx, 1)
		if !okA || !okB {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if ea.Kind != eb.Kind || (ea.Kind == element.Stop && ea.Level != eb.Level) {
			return fmt.Errorf("%s: misaligned streams: %s vs %s", o.name, ea, eb)
		}
		if ea.Kind == element.Done {
			return nil
		}
		tick(ctx)
		if ea.Kind == element.Stop {
			ctx.Out[0].Send(ctx.P, ea)
			continue
		}
		ctx.Out[0].Send(ctx.P, element.DataOf(element.Tuple{A: ea.Value, B: eb.Value}))
	}
}

// repeatOp repeats every element n times, adding an inner dimension. It is
// the static-reference form of Expand used by the hierarchical-tiling
// transformation (Fig. 18).
type repeatOp struct {
	base
	count int
}

// RepeatElems repeats each data element count times, adding a new
// innermost dimension of extent count.
func RepeatElems(g *graph.Graph, name string, in *graph.Stream, count int) *graph.Stream {
	if count < 1 {
		g.Errf("%s: repeat count must be >= 1", name)
		count = 1
	}
	op := &repeatOp{base: newBase(name), count: count}
	n := g.AddNode(op, in)
	repeatKind.set(n, repeatAttrs{Count: count})
	dims := make([]shape.Dim, 0, in.Shape.Rank()+1)
	dims = append(dims, in.Shape.Dims...)
	dims = append(dims, shape.Static(count))
	op.onchip = in.DType.Bytes()
	return g.NewStream(n, shape.New(dims...), in.DType)
}

func (o *repeatOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	pendingClose := false // a repeat group awaits its S1 or a subsuming stop
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			if pendingClose {
				tick(ctx)
				ctx.Out[0].Send(ctx.P, element.StopOf(1))
			}
			return nil
		case element.Stop:
			pendingClose = false
			tick(ctx)
			ctx.Out[0].Send(ctx.P, element.StopOf(e.Level+1))
		default:
			if pendingClose {
				tick(ctx)
				ctx.Out[0].Send(ctx.P, element.StopOf(1))
			}
			for i := 0; i < o.count; i++ {
				tick(ctx)
				ctx.Out[0].Send(ctx.P, e)
			}
			pendingClose = true
		}
	}
}

package ops

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
)

// bufferizeOp stores rank-b portions of the stream to on-chip memory and
// emits buffer references (§3.2.2, Fig. 3).
type bufferizeOp struct {
	base
	b        int
	bufShape shape.Shape
}

// Bufferize stores the input stream's inner b dimensions to on-chip memory
// and outputs a stream of read-only buffer references. The bufferized
// inner dims may be dynamic; the outermost bufferized dim may be ragged.
func Bufferize(g *graph.Graph, name string, in *graph.Stream, b int) *graph.Stream {
	if b < 1 || b >= in.Shape.Rank() {
		g.Errf("%s: bufferize rank %d out of range for shape %s", name, b, in.Shape)
		b = 1
	}
	op := &bufferizeOp{base: newBase(name), b: b}
	bufShape, err := in.Shape.Inner(b)
	if err != nil {
		g.Errf("%s: %v", name, err)
	}
	op.bufShape = bufShape
	outShape, err := in.Shape.Drop(b)
	if err != nil {
		g.Errf("%s: %v", name, err)
		outShape = in.Shape
	}
	n := g.AddNode(op, in)
	bufferizeKind.set(n, bufferizeAttrs{B: b})
	dt := graph.BufferType{Elem: in.DType, Shape: bufShape}
	out := g.NewStream(n, outShape, dt)
	// §4.2: |input dtype| + ||buffer|| × |input dtype| × 2 (double buffering).
	op.onchip = symbolic.Add(
		in.DType.Bytes(),
		symbolic.Mul(bufShape.Cardinality(), in.DType.Bytes(), symbolic.Const(2)),
	)
	return out
}

func (o *bufferizeOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	spad := ctx.Machine.Spad
	w := newStopWriter(ctx, 0)
	var body []element.Element
	var values []element.Value
	nextID := 0
	flushBuffer := func() error {
		if len(body) == 0 && len(values) == 0 {
			return nil
		}
		nextID++
		buf := &element.Buffer{ID: nextID, Body: body, Values: values, Shape: o.bufShape}
		w.data(element.DataOf(element.BufRef{Buf: buf}))
		body, values = nil, nil
		return nil
	}
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			if err := flushBuffer(); err != nil {
				return err
			}
			w.flush()
			return nil
		case element.Stop:
			if e.Level >= o.b {
				if err := flushBuffer(); err != nil {
					return err
				}
				if e.Level > o.b {
					w.stop(e.Level - o.b)
				}
			} else {
				body = append(body, e)
			}
		default:
			// Write the element into on-chip memory.
			bytes := e.Value.Bytes()
			if _, err := spad.Alloc(ctx.P, bytes); err != nil {
				return fmt.Errorf("%s: %w", o.name, err)
			}
			ctx.P.Advance(spad.AccessCycles(bytes))
			body = append(body, e)
			values = append(values, e.Value)
		}
	}
}

// streamifyOp reads on-chip buffers, once per reference element, with
// affine or linear order (§3.2.2, Fig. 3).
type streamifyOp struct {
	base
	c        int // extra reference dims below the buffer stream dims
	affine   bool
	stride   [2]int
	outShape [2]int
	outDims  int // dims emitted per read pass
	free     bool
}

// Streamify reads each buffer a dynamic number of times, driven by the
// reference stream (rank = buffer-stream rank + c). When the buffer shape
// is fully static, stride/outShape describe an affine read over the
// buffered values (in tile units); pass nil for linear streaming of the
// whole buffer. Freed buffers return their scratchpad bytes.
func Streamify(g *graph.Graph, name string, bufs, ref *graph.Stream, stride, outShape *[2]int) *graph.Stream {
	bt, ok := bufs.DType.(graph.BufferType)
	if !ok {
		g.Errf("%s: input must be a buffer stream, got %s", name, bufs.DType)
		bt = graph.BufferType{Elem: graph.ScalarType{}, Shape: shape.Scalar()}
	}
	c := ref.Shape.Rank() - bufs.Shape.Rank()
	if c < 0 {
		g.Errf("%s: reference rank %d below buffer stream rank %d", name, ref.Shape.Rank(), bufs.Shape.Rank())
		c = 0
	}
	op := &streamifyOp{base: newBase(name), c: c, free: true}
	var readDims []shape.Dim
	if stride != nil && outShape != nil {
		switch {
		case !bt.Shape.IsFullyStatic():
			g.Errf("%s: affine read requires a fully static buffer shape, got %s", name, bt.Shape)
		case outShape[0] <= 0 || outShape[1] <= 0:
			g.Errf("%s: non-positive out shape %v", name, *outShape)
		default:
			size, _ := bt.Shape.Cardinality().IsConst()
			if idx, out := affineOutOfRange(*stride, *outShape, int(size)); out {
				g.Errf("%s: affine read reaches index %d outside buffer of %d", name, idx, size)
			}
		}
		op.affine = true
		op.stride = *stride
		op.outShape = *outShape
		readDims = []shape.Dim{shape.Static(outShape[0]), shape.Static(outShape[1])}
	} else {
		// Linear streaming: the buffer's own shape is appended.
		readDims = bt.Shape.Dims
	}
	op.outDims = len(readDims)
	n := g.AddNode(op, bufs, ref)
	attrs := streamifyAttrs{}
	if stride != nil && outShape != nil {
		st, os := *stride, *outShape
		attrs.Stride, attrs.OutShape = &st, &os
	}
	streamifyKind.set(n, attrs)
	dims := make([]shape.Dim, 0, ref.Shape.Rank()+len(readDims))
	dims = append(dims, ref.Shape.Dims...)
	dims = append(dims, readDims...)
	return g.NewStream(n, shape.New(dims...), bt.Elem)
}

// StreamifyLinear streams each buffer exactly once in linear order, with
// no reference stream.
func StreamifyLinear(g *graph.Graph, name string, bufs *graph.Stream) *graph.Stream {
	bt, ok := bufs.DType.(graph.BufferType)
	if !ok {
		g.Errf("%s: input must be a buffer stream, got %s", name, bufs.DType)
		bt = graph.BufferType{Elem: graph.ScalarType{}, Shape: shape.Scalar()}
	}
	op := &streamifyOp{base: newBase(name), c: -1, free: true}
	op.outDims = bt.Shape.Rank()
	n := g.AddNode(op, bufs)
	streamifyLinearKind.set(n, noAttrs{})
	dims := make([]shape.Dim, 0, bufs.Shape.Rank()+bt.Shape.Rank())
	dims = append(dims, bufs.Shape.Dims...)
	dims = append(dims, bt.Shape.Dims...)
	return g.NewStream(n, shape.New(dims...), bt.Elem)
}

func (o *streamifyOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	w := newStopWriter(ctx, 0)
	if o.c < 0 {
		err := o.runLinearNoRef(ctx, w)
		w.flush()
		return err
	}
	err := o.runWithRef(ctx, w)
	w.flush()
	return err
}

// emitPass emits one full read of the buffer.
func (o *streamifyOp) emitPass(ctx *graph.Ctx, w *stopWriter, buf *element.Buffer) error {
	spad := ctx.Machine.Spad
	if o.affine {
		for i := 0; i < o.outShape[0]; i++ {
			for j := 0; j < o.outShape[1]; j++ {
				idx := i*o.stride[0] + j*o.stride[1]
				if idx < 0 || idx >= len(buf.Values) {
					return fmt.Errorf("%s: affine index %d out of buffer of %d", o.name, idx, len(buf.Values))
				}
				v := buf.Values[idx]
				ctx.P.Advance(spad.AccessCycles(v.Bytes()))
				w.data(element.DataOf(v))
			}
			w.stop(1)
		}
		w.stop(2)
		return nil
	}
	for _, e := range buf.Body {
		if e.IsData() {
			ctx.P.Advance(spad.AccessCycles(e.Value.Bytes()))
			w.data(e)
		} else {
			w.stop(e.Level)
		}
	}
	if o.outDims > 0 {
		w.stop(o.outDims)
	}
	return nil
}

// release returns the buffer's bytes to the scratchpad once.
func (o *streamifyOp) release(ctx *graph.Ctx, buf *element.Buffer) {
	if !o.free || buf.Released {
		return
	}
	buf.Released = true
	ctx.Machine.Spad.Free(ctx.P, buf.Bytes())
}

// runLinearNoRef streams every buffer once.
func (o *streamifyOp) runLinearNoRef(ctx *graph.Ctx, w *stopWriter) error {
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			return nil
		case element.Stop:
			w.stop(e.Level + o.outDims)
		default:
			ref, ok := e.Value.(element.BufRef)
			if !ok {
				return fmt.Errorf("%s: expected buffer reference, got %T", o.name, e.Value)
			}
			if err := o.emitPass(ctx, w, ref.Buf); err != nil {
				return err
			}
			o.release(ctx, ref.Buf)
		}
	}
}

// runWithRef pairs each buffer with its rank-c reference subtree: each
// reference data element triggers one read pass.
func (o *streamifyOp) runWithRef(ctx *graph.Ctx, w *stopWriter) error {
	for {
		be, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: buffer stream closed without Done", o.name)
		}
		switch be.Kind {
		case element.Done:
			// Reference stream must be at Done too.
			re, ok := ctx.In[1].Recv(ctx.P)
			if ok && re.Kind != element.Done {
				return fmt.Errorf("%s: reference stream longer than buffer stream (%s)", o.name, re)
			}
			return nil
		case element.Stop:
			// Mirrored by a reference stop of level + c, consumed below
			// with the triggering subtree's closer.
			w.stop(be.Level + o.c + o.outDims)
		default:
			ref, ok := be.Value.(element.BufRef)
			if !ok {
				return fmt.Errorf("%s: expected buffer reference, got %T", o.name, be.Value)
			}
			if err := o.consumeRefSubtree(ctx, w, ref.Buf); err != nil {
				return err
			}
			o.release(ctx, ref.Buf)
		}
	}
}

// consumeRefSubtree reads the rank-c reference subtree for one buffer,
// emitting a pass per reference data element.
func (o *streamifyOp) consumeRefSubtree(ctx *graph.Ctx, w *stopWriter, buf *element.Buffer) error {
	for {
		re, ok := recvTracked(ctx, 1)
		if !ok {
			return fmt.Errorf("%s: reference closed without Done", o.name)
		}
		switch re.Kind {
		case element.Done:
			return fmt.Errorf("%s: reference stream ended before buffer stream", o.name)
		case element.Stop:
			w.stop(re.Level + o.outDims)
			if o.c > 0 && re.Level >= o.c {
				// Closes this buffer's subtree (and possibly outer dims,
				// mirrored by upcoming buffer-stream stops, which merge in
				// the stop writer).
				return nil
			}
			// o.c == 0: the stop mirrors an already-emitted buffer-stream
			// boundary; keep waiting for this buffer's trigger element.
		default:
			if err := o.emitPass(ctx, w, buf); err != nil {
				return err
			}
			if o.c == 0 {
				// Each buffer pairs with exactly one reference element.
				return nil
			}
		}
	}
}

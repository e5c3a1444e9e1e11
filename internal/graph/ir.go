package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"step/internal/element"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
)

// IRVersion tags the serializable program format. Bump it whenever the
// schema changes incompatibly; ParseProgramIR rejects other versions.
const IRVersion = "step-program/v1"

// IR size limits, enforced symmetrically: the encoder refuses to emit
// what the loader would refuse to load (a serialized program must
// round-trip), and the loader bounds hostile documents so a submission
// cannot demand unbounded allocation before validation fails.
const (
	// MaxIRStreamDepth bounds per-stream FIFO depth overrides; channel
	// buffers allocate eagerly per stream at run time.
	MaxIRStreamDepth = 1 << 16
	// MaxIRTileElems bounds the materialized (data/fill/random) elements
	// of one tile; shape-only tiles carry no storage and are unbounded.
	MaxIRTileElems = 1 << 18
	// MaxIRCount bounds count-source style element counts.
	MaxIRCount = 1 << 16
	// MaxIRRank bounds rank-like operator attributes (several
	// constructors size allocations by them).
	MaxIRRank = 32
	// MaxIRFanout bounds output fan-out (broadcast k, partition num).
	MaxIRFanout = 1 << 16
	// MaxIRProgramTileElems bounds the total elements materialized from
	// fill/random tile forms across one whole program instantiation.
	// Those forms amplify: a few bytes of JSON demand rows*cols elements
	// of storage, so a small document could otherwise materialize
	// gigabytes. Explicit data tiles are exempt — their size is already
	// bounded by the document itself (and the encoder only ever emits
	// data or shape-only forms, so the budget never affects re-loading
	// an encoded program).
	MaxIRProgramTileElems = 1 << 22
)

// DecodeEnv carries decode state: the seed for seeded tile forms, the
// program-wide materialization budget, and a count of the seeded random
// tiles decoded so far.
type DecodeEnv struct {
	seed uint64
	// tileBudget is the remaining fill/random element allowance.
	tileBudget int64
	random     int
}

// Seeded decodes an operator's tile content once, at seed 0. When the
// content drew seeded random tiles it also returns a function that
// re-derives it for a run seed (Ctx.Seed); otherwise that function is
// nil, and every run shares the decoded content read-only.
func Seeded[T any](env *DecodeEnv, decode func(*DecodeEnv) (T, error)) (T, func(seed uint64) T, error) {
	drawn := env.random
	v, err := decode(env)
	if err != nil || env.random == drawn {
		return v, nil, err
	}
	return v, func(seed uint64) T {
		// A seed changes tile values only, and this content decoded
		// once already, so decoding it again cannot fail.
		v, _ := decode(&DecodeEnv{seed: seed, tileBudget: MaxIRProgramTileElems})
		return v
	}, nil
}

// ProgramIR is the serializable form of a STeP program: the builder
// calls that construct it, in insertion order, with operator attributes
// and explicit stream wiring. It is a *construction replay*, not a
// snapshot — loading an IR re-runs the same constructors, so shape
// inference and validation happen again on load. Any graph built purely
// from the library constructors in internal/ops (with library functions,
// not custom Go closures) round-trips through it.
type ProgramIR struct {
	Version string   `json:"version"`
	Name    string   `json:"name,omitempty"`
	Nodes   []NodeIR `json:"nodes"`
}

// NodeIR is one operator instance: its kind, display name, input stream
// ids, produced streams, and operator-specific attributes.
type NodeIR struct {
	Op      string          `json:"op"`
	Name    string          `json:"name"`
	Inputs  []int           `json:"inputs,omitempty"`
	Outputs []StreamIR      `json:"outputs,omitempty"`
	Attrs   json.RawMessage `json:"attrs,omitempty"`
}

// StreamIR declares one output stream of a node: its graph-unique id,
// an optional FIFO-depth override, and optional shape/dtype overrides
// (the OverrideShape / OverrideDType frontend feature).
type StreamIR struct {
	ID    int      `json:"id"`
	Depth int      `json:"depth,omitempty"`
	Shape *ShapeIR `json:"shape,omitempty"`
	DType *DTypeIR `json:"dtype,omitempty"`
}

// ShapeIR serializes a stream shape, outermost dimension first.
type ShapeIR struct {
	Dims []DimIR `json:"dims"`
}

// DimIR serializes one dimension. Kind is "static" (default when
// empty), "dynamic", or "ragged".
type DimIR struct {
	Kind string  `json:"kind,omitempty"`
	Size *ExprIR `json:"size"`
}

// ExprIR serializes a symbolic integer expression as a one-of tree.
type ExprIR struct {
	Const   *int64   `json:"const,omitempty"`
	Sym     string   `json:"sym,omitempty"`
	Add     []ExprIR `json:"add,omitempty"`
	Mul     []ExprIR `json:"mul,omitempty"`
	CeilDiv []ExprIR `json:"ceildiv,omitempty"` // [num, den]
	Max     []ExprIR `json:"max,omitempty"`
}

// DTypeIR serializes a stream data type.
type DTypeIR struct {
	Kind string   `json:"kind"` // tile|selector|buffer|tuple|scalar|flag
	Rows *DimIR   `json:"rows,omitempty"`
	Cols *DimIR   `json:"cols,omitempty"`
	N    int      `json:"n,omitempty"`
	Elem *DTypeIR `json:"elem,omitempty"`
	Of   *ShapeIR `json:"of,omitempty"`
	A    *DTypeIR `json:"a,omitempty"`
	B    *DTypeIR `json:"b,omitempty"`
}

// ElementIR serializes one stream token: a stop level, the Done marker,
// or a data value.
type ElementIR struct {
	Stop  int      `json:"stop,omitempty"`
	Done  bool     `json:"done,omitempty"`
	Value *ValueIR `json:"value,omitempty"`
}

// ValueIR serializes a data value (one-of).
type ValueIR struct {
	Scalar   *int64      `json:"scalar,omitempty"`
	Flag     *bool       `json:"flag,omitempty"`
	Selector *SelectorIR `json:"selector,omitempty"`
	Tile     *TileIR     `json:"tile,omitempty"`
	Tuple    []ValueIR   `json:"tuple,omitempty"` // exactly 2
}

// SelectorIR serializes a multi-hot selector.
type SelectorIR struct {
	N       int   `json:"n"`
	Indices []int `json:"indices,omitempty"`
}

// TileIR serializes a tile. Exactly one content form applies: Data
// (row-major element values), Fill (constant fill), Random (seeded
// pseudo-random contents — the effective seed is the run seed plus
// Random's value, so one program yields an independent instance per
// run seed), or none of them (a shape-only tile carrying extents but no
// element storage).
type TileIR struct {
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	Data   []float64 `json:"data,omitempty"`
	Fill   *float64  `json:"fill,omitempty"`
	Random *uint64   `json:"random,omitempty"`
}

// --- converters: symbolic expressions ---

// ExprToIR serializes a symbolic expression; nil maps to nil.
func ExprToIR(e symbolic.Expr) *ExprIR {
	if e == nil {
		return nil
	}
	t := symbolic.ToTree(e)
	return treeToIR(t)
}

func treeToIR(t symbolic.Tree) *ExprIR {
	switch t.Kind {
	case "const":
		c := t.Const
		return &ExprIR{Const: &c}
	case "sym":
		return &ExprIR{Sym: t.Sym}
	case "add":
		return &ExprIR{Add: treesToIR(t.Args)}
	case "mul":
		return &ExprIR{Mul: treesToIR(t.Args)}
	case "ceildiv":
		return &ExprIR{CeilDiv: treesToIR(t.Args)}
	case "max":
		return &ExprIR{Max: treesToIR(t.Args)}
	}
	return nil
}

func treesToIR(ts []symbolic.Tree) []ExprIR {
	out := make([]ExprIR, len(ts))
	for i, t := range ts {
		out[i] = *treeToIR(t)
	}
	return out
}

// ExprFromIR rebuilds a symbolic expression; nil maps to nil. The
// expression is bounded to a few hundred nodes: shape sizes and metric
// parameters are tiny, and the eager simplifier's cost superlinear, so
// a hostile multi-kilobyte expression must fail instead of stalling the
// loader.
func ExprFromIR(e *ExprIR) (symbolic.Expr, error) {
	if e == nil {
		return nil, nil
	}
	budget := 256
	t, err := irToTreeBounded(*e, &budget)
	if err != nil {
		return nil, err
	}
	return symbolic.FromTree(t)
}

func irToTreeBounded(e ExprIR, budget *int) (symbolic.Tree, error) {
	*budget--
	if *budget < 0 {
		return symbolic.Tree{}, fmt.Errorf("ir: expression exceeds 256 nodes")
	}
	return irToTree(e, budget)
}

func irToTree(e ExprIR, budget *int) (symbolic.Tree, error) {
	set := 0
	var t symbolic.Tree
	if e.Const != nil {
		set++
		t = symbolic.Tree{Kind: "const", Const: *e.Const}
	}
	if e.Sym != "" {
		set++
		t = symbolic.Tree{Kind: "sym", Sym: e.Sym}
	}
	// Fixed decode order: an invalid multi-kind expression must report
	// the same first error every run (stepvet: determinism).
	for _, ka := range [...]struct {
		kind string
		args []ExprIR
	}{{"add", e.Add}, {"mul", e.Mul}, {"ceildiv", e.CeilDiv}, {"max", e.Max}} {
		kind, args := ka.kind, ka.args
		if len(args) == 0 {
			continue
		}
		set++
		sub := make([]symbolic.Tree, len(args))
		for i, a := range args {
			st, err := irToTreeBounded(a, budget)
			if err != nil {
				return symbolic.Tree{}, err
			}
			sub[i] = st
		}
		t = symbolic.Tree{Kind: kind, Args: sub}
	}
	if set != 1 {
		return symbolic.Tree{}, fmt.Errorf("ir: expr must set exactly one of const/sym/add/mul/ceildiv/max")
	}
	return t, nil
}

// --- converters: shapes and dims ---

// DimToIR serializes a dimension.
func DimToIR(d shape.Dim) DimIR {
	out := DimIR{Size: ExprToIR(d.Size)}
	switch d.Kind {
	case shape.DynamicRegular:
		out.Kind = "dynamic"
	case shape.Ragged:
		out.Kind = "ragged"
	}
	return out
}

// DimFromIR rebuilds a dimension.
func DimFromIR(d DimIR) (shape.Dim, error) {
	size, err := ExprFromIR(d.Size)
	if err != nil {
		return shape.Dim{}, err
	}
	if size == nil {
		return shape.Dim{}, fmt.Errorf("ir: dim without a size")
	}
	switch d.Kind {
	case "", "static":
		v, ok := size.IsConst()
		if !ok {
			return shape.Dim{}, fmt.Errorf("ir: static dim with non-constant size %s", size)
		}
		return shape.Static(int(v)), nil
	case "dynamic":
		return shape.Dynamic(size), nil
	case "ragged":
		return shape.Dim{Kind: shape.Ragged, Size: size}, nil
	}
	return shape.Dim{}, fmt.Errorf("ir: unknown dim kind %q", d.Kind)
}

// ShapeToIR serializes a shape.
func ShapeToIR(s shape.Shape) *ShapeIR {
	dims := make([]DimIR, len(s.Dims))
	for i, d := range s.Dims {
		dims[i] = DimToIR(d)
	}
	return &ShapeIR{Dims: dims}
}

// ShapeFromIR rebuilds a shape.
func ShapeFromIR(s *ShapeIR) (shape.Shape, error) {
	if s == nil {
		return shape.Shape{}, fmt.Errorf("ir: missing shape")
	}
	dims := make([]shape.Dim, len(s.Dims))
	for i, d := range s.Dims {
		dd, err := DimFromIR(d)
		if err != nil {
			return shape.Shape{}, err
		}
		dims[i] = dd
	}
	return shape.New(dims...), nil
}

// DimsFromIR rebuilds a dimension list.
func DimsFromIR(ds []DimIR) ([]shape.Dim, error) {
	out := make([]shape.Dim, len(ds))
	for i, d := range ds {
		dd, err := DimFromIR(d)
		if err != nil {
			return nil, err
		}
		out[i] = dd
	}
	return out, nil
}

// --- converters: data types ---

// DTypeToIR serializes a data type; unknown implementations return an
// error (they have no wire form).
func DTypeToIR(dt DType) (*DTypeIR, error) {
	switch t := dt.(type) {
	case TileType:
		rows, cols := DimToIR(t.Rows), DimToIR(t.Cols)
		return &DTypeIR{Kind: "tile", Rows: &rows, Cols: &cols}, nil
	case SelectorType:
		return &DTypeIR{Kind: "selector", N: t.N}, nil
	case BufferType:
		elem, err := DTypeToIR(t.Elem)
		if err != nil {
			return nil, err
		}
		return &DTypeIR{Kind: "buffer", Elem: elem, Of: ShapeToIR(t.Shape)}, nil
	case TupleType:
		a, err := DTypeToIR(t.A)
		if err != nil {
			return nil, err
		}
		b, err := DTypeToIR(t.B)
		if err != nil {
			return nil, err
		}
		return &DTypeIR{Kind: "tuple", A: a, B: b}, nil
	case ScalarType:
		return &DTypeIR{Kind: "scalar"}, nil
	case FlagType:
		return &DTypeIR{Kind: "flag"}, nil
	}
	return nil, fmt.Errorf("ir: data type %T has no IR form", dt)
}

// DTypeFromIR rebuilds a data type.
func DTypeFromIR(dt *DTypeIR) (DType, error) {
	if dt == nil {
		return nil, fmt.Errorf("ir: missing dtype")
	}
	switch dt.Kind {
	case "tile":
		if dt.Rows == nil || dt.Cols == nil {
			return nil, fmt.Errorf("ir: tile dtype needs rows and cols")
		}
		rows, err := DimFromIR(*dt.Rows)
		if err != nil {
			return nil, err
		}
		cols, err := DimFromIR(*dt.Cols)
		if err != nil {
			return nil, err
		}
		return TileType{Rows: rows, Cols: cols}, nil
	case "selector":
		return SelectorType{N: dt.N}, nil
	case "buffer":
		elem, err := DTypeFromIR(dt.Elem)
		if err != nil {
			return nil, err
		}
		sh, err := ShapeFromIR(dt.Of)
		if err != nil {
			return nil, err
		}
		return BufferType{Elem: elem, Shape: sh}, nil
	case "tuple":
		a, err := DTypeFromIR(dt.A)
		if err != nil {
			return nil, err
		}
		b, err := DTypeFromIR(dt.B)
		if err != nil {
			return nil, err
		}
		return TupleType{A: a, B: b}, nil
	case "scalar":
		return ScalarType{}, nil
	case "flag":
		return FlagType{}, nil
	}
	return nil, fmt.Errorf("ir: unknown dtype kind %q", dt.Kind)
}

// --- converters: tiles, values, elements ---

// TileToIR serializes a tile. Tiles built at run time from a seed have
// no provenance left, so they serialize as explicit data; hand-written
// IR keeps its random/fill form through loads because decoders re-bind
// the original attributes (see BuildIR). Data tiles above MaxIRTileElems
// refuse to serialize — the loader would refuse them right back.
func TileToIR(t *tile.Tile) (*TileIR, error) {
	out := &TileIR{Rows: t.Rows, Cols: t.Cols}
	if t.Data != nil {
		if len(t.Data) > MaxIRTileElems {
			return nil, fmt.Errorf("ir: tile %dx%d exceeds %d materialized elements", t.Rows, t.Cols, MaxIRTileElems)
		}
		out.Data = make([]float64, len(t.Data))
		for i, v := range t.Data {
			out.Data[i] = float64(v)
		}
	}
	return out, nil
}

// TileFromIR rebuilds a tile; env's seed offsets TileIR.Random, and
// fill/random forms draw from env's program-wide materialization
// budget.
func TileFromIR(ti *TileIR, env *DecodeEnv) (*tile.Tile, error) {
	if ti == nil {
		return nil, fmt.Errorf("ir: missing tile")
	}
	if ti.Rows < 0 || ti.Cols < 0 {
		return nil, fmt.Errorf("ir: negative tile shape %dx%d", ti.Rows, ti.Cols)
	}
	forms := 0
	if len(ti.Data) > 0 {
		forms++
	}
	if ti.Fill != nil {
		forms++
	}
	if ti.Random != nil {
		forms++
	}
	if forms > 1 {
		return nil, fmt.Errorf("ir: tile declares multiple content forms (data/fill/random)")
	}
	// Materializing forms allocate rows*cols elements; bound them so a
	// hostile IR cannot demand terabytes (shape-only tiles stay unbounded
	// — they carry no storage).
	if forms == 1 && int64(ti.Rows)*int64(ti.Cols) > MaxIRTileElems {
		return nil, fmt.Errorf("ir: tile %dx%d exceeds %d materialized elements", ti.Rows, ti.Cols, MaxIRTileElems)
	}
	if ti.Fill != nil || ti.Random != nil {
		env.tileBudget -= int64(ti.Rows) * int64(ti.Cols)
		if env.tileBudget < 0 {
			return nil, fmt.Errorf("ir: program materializes more than %d fill/random tile elements", MaxIRProgramTileElems)
		}
	}
	switch {
	case len(ti.Data) > 0:
		if len(ti.Data) != ti.Rows*ti.Cols {
			return nil, fmt.Errorf("ir: tile %dx%d with %d data values", ti.Rows, ti.Cols, len(ti.Data))
		}
		t := tile.New(ti.Rows, ti.Cols)
		for i, v := range ti.Data {
			t.Data[i] = float32(v)
		}
		return t, nil
	case ti.Fill != nil:
		return tile.Filled(ti.Rows, ti.Cols, float32(*ti.Fill)), nil
	case ti.Random != nil:
		env.random++
		return tile.Random(ti.Rows, ti.Cols, env.seed+*ti.Random), nil
	default:
		return tile.ShapeOnly(ti.Rows, ti.Cols), nil
	}
}

// ValueToIR serializes a data value; buffer references have no wire form
// (they only exist at run time).
func ValueToIR(v element.Value) (*ValueIR, error) {
	switch t := v.(type) {
	case element.Scalar:
		c := t.V
		return &ValueIR{Scalar: &c}, nil
	case element.Flag:
		b := t.B
		return &ValueIR{Flag: &b}, nil
	case element.Selector:
		return &ValueIR{Selector: &SelectorIR{N: t.N, Indices: t.Indices}}, nil
	case element.TileVal:
		ti, err := TileToIR(t.T)
		if err != nil {
			return nil, err
		}
		return &ValueIR{Tile: ti}, nil
	case element.Tuple:
		a, err := ValueToIR(t.A)
		if err != nil {
			return nil, err
		}
		b, err := ValueToIR(t.B)
		if err != nil {
			return nil, err
		}
		return &ValueIR{Tuple: []ValueIR{*a, *b}}, nil
	}
	return nil, fmt.Errorf("ir: value %T has no IR form", v)
}

// ValueFromIR rebuilds a data value.
func ValueFromIR(v *ValueIR, env *DecodeEnv) (element.Value, error) {
	if v == nil {
		return nil, fmt.Errorf("ir: missing value")
	}
	forms := 0
	if v.Scalar != nil {
		forms++
	}
	if v.Flag != nil {
		forms++
	}
	if v.Selector != nil {
		forms++
	}
	if v.Tile != nil {
		forms++
	}
	if len(v.Tuple) > 0 {
		forms++
	}
	if forms != 1 {
		return nil, fmt.Errorf("ir: value must set exactly one of scalar/flag/selector/tile/tuple")
	}
	switch {
	case v.Scalar != nil:
		return element.Scalar{V: *v.Scalar}, nil
	case v.Flag != nil:
		return element.Flag{B: *v.Flag}, nil
	case v.Selector != nil:
		s := v.Selector
		for i, idx := range s.Indices {
			if idx < 0 || idx >= s.N {
				return nil, fmt.Errorf("ir: selector index %d out of [0,%d)", idx, s.N)
			}
			if i > 0 && s.Indices[i-1] >= idx {
				return nil, fmt.Errorf("ir: selector indices must be strictly increasing")
			}
		}
		return element.Selector{N: s.N, Indices: s.Indices}, nil
	case v.Tile != nil:
		t, err := TileFromIR(v.Tile, env)
		if err != nil {
			return nil, err
		}
		return element.TileVal{T: t}, nil
	default:
		if len(v.Tuple) != 2 {
			return nil, fmt.Errorf("ir: tuple needs exactly 2 values, got %d", len(v.Tuple))
		}
		a, err := ValueFromIR(&v.Tuple[0], env)
		if err != nil {
			return nil, err
		}
		b, err := ValueFromIR(&v.Tuple[1], env)
		if err != nil {
			return nil, err
		}
		return element.Tuple{A: a, B: b}, nil
	}
}

// ElemsToIR serializes an element sequence.
func ElemsToIR(es []element.Element) ([]ElementIR, error) {
	out := make([]ElementIR, len(es))
	for i, e := range es {
		switch e.Kind {
		case element.Stop:
			out[i] = ElementIR{Stop: e.Level}
		case element.Done:
			out[i] = ElementIR{Done: true}
		default:
			v, err := ValueToIR(e.Value)
			if err != nil {
				return nil, err
			}
			out[i] = ElementIR{Value: v}
		}
	}
	return out, nil
}

// ElemsFromIR rebuilds an element sequence.
func ElemsFromIR(es []ElementIR, env *DecodeEnv) ([]element.Element, error) {
	out := make([]element.Element, len(es))
	for i, e := range es {
		forms := 0
		if e.Stop != 0 {
			forms++
		}
		if e.Done {
			forms++
		}
		if e.Value != nil {
			forms++
		}
		if forms != 1 {
			return nil, fmt.Errorf("ir: element %d must set exactly one of stop/done/value", i)
		}
		switch {
		case e.Stop != 0:
			if e.Stop < 1 {
				return nil, fmt.Errorf("ir: element %d: stop level %d < 1", i, e.Stop)
			}
			out[i] = element.StopOf(e.Stop)
		case e.Done:
			out[i] = element.DoneElem
		default:
			v, err := ValueFromIR(e.Value, env)
			if err != nil {
				return nil, fmt.Errorf("ir: element %d: %w", i, err)
			}
			out[i] = element.DataOf(v)
		}
	}
	return out, nil
}

// --- encode ---

// EncodeIR serializes the graph into the program IR. Every node must
// carry an IR description (set by the ops constructors); a node built
// from a custom Go closure or an IR-unaware constructor makes the graph
// inexpressible and is reported by name.
func (g *Graph) EncodeIR(name string) (*ProgramIR, error) {
	ir := &ProgramIR{Version: IRVersion, Name: name, Nodes: make([]NodeIR, 0, len(g.nodes))}
	for _, n := range g.nodes {
		if n.irOp == "" {
			return nil, fmt.Errorf("ir: node n%d (%s) has no IR form (custom function or IR-unaware constructor)", n.ID, n.Op.Name())
		}
		nir := NodeIR{Op: n.irOp, Name: n.Op.Name()}
		for _, in := range n.Inputs {
			nir.Inputs = append(nir.Inputs, in.id)
		}
		for _, out := range n.Outputs {
			sir := StreamIR{ID: out.id}
			if out.depth > MaxIRStreamDepth {
				return nil, fmt.Errorf("ir: node n%d (%s): stream depth %d exceeds %d", n.ID, n.Op.Name(), out.depth, MaxIRStreamDepth)
			}
			if out.depth > 0 {
				sir.Depth = out.depth
			}
			if out.shapeOverridden {
				sir.Shape = ShapeToIR(out.Shape)
			}
			if out.dtypeOverridden {
				dt, err := DTypeToIR(out.DType)
				if err != nil {
					return nil, fmt.Errorf("ir: node n%d (%s): %w", n.ID, n.Op.Name(), err)
				}
				sir.DType = dt
			}
			nir.Outputs = append(nir.Outputs, sir)
		}
		if n.irAttrs != nil {
			b, err := json.Marshal(n.irAttrs)
			if err != nil {
				// Name the node as the loader does, and drop the
				// wrapping encoding/json adds around the attrs' error.
				for me, ok := err.(*json.MarshalerError); ok; me, ok = err.(*json.MarshalerError) {
					err = me.Unwrap()
				}
				return nil, fmt.Errorf("ir: %s %q: %w", n.irOp, n.Op.Name(), err)
			}
			if !bytes.Equal(b, []byte("{}")) && !bytes.Equal(b, []byte("null")) {
				nir.Attrs = b
			}
		}
		ir.Nodes = append(ir.Nodes, nir)
	}
	return ir, nil
}

// --- parse / canonicalize / hash ---

// ParseProgramIR decodes a program IR document, rejecting unknown
// fields and unsupported versions.
func ParseProgramIR(b []byte) (*ProgramIR, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var ir ProgramIR
	if err := dec.Decode(&ir); err != nil {
		return nil, fmt.Errorf("ir: parse program: %w", err)
	}
	if ir.Version != "" && ir.Version != IRVersion {
		return nil, fmt.Errorf("ir: unsupported program version %q (want %s)", ir.Version, IRVersion)
	}
	ir.Version = IRVersion
	if len(ir.Nodes) == 0 {
		return nil, fmt.Errorf("ir: program has no nodes")
	}
	return &ir, nil
}

// LoadProgramIR reads and decodes a program IR file.
func LoadProgramIR(path string) (*ProgramIR, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ir: %w", err)
	}
	ir, err := ParseProgramIR(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ir, nil
}

// CanonicalJSON renders the IR with sorted object keys and no
// insignificant whitespace, so equal IRs produce equal bytes. Numbers
// keep their literal spelling (json.Number), which makes
// canonicalization idempotent: canonicalizing canonical bytes is the
// identity.
func (ir *ProgramIR) CanonicalJSON() ([]byte, error) {
	raw, err := json.Marshal(ir)
	if err != nil {
		return nil, fmt.Errorf("ir: canonical marshal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("ir: canonical decode: %w", err)
	}
	return json.Marshal(v)
}

// Hash returns the SHA-256 hex digest of the IR's canonical bytes —
// the content address under which the store/service cache user-submitted
// programs.
func (ir *ProgramIR) Hash() (string, error) {
	b, err := ir.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// --- decode registry ---

// DecodeCtx is handed to a registered operator decoder: the graph under
// construction, the decode state, and the node being decoded, plus helpers
// to resolve inputs, unmarshal attributes, and register outputs.
type DecodeCtx struct {
	G    *Graph
	Env  *DecodeEnv
	Node NodeIR

	streams map[int]*Stream
	defers  *[]func() error
}

// In resolves input i of the node. During the deferred phase (relay
// feeds) all streams exist; during the main phase only streams produced
// by earlier nodes do.
func (dc *DecodeCtx) In(i int) (*Stream, error) {
	if i < 0 || i >= len(dc.Node.Inputs) {
		return nil, fmt.Errorf("ir: node %q needs input %d, has %d", dc.Node.Name, i, len(dc.Node.Inputs))
	}
	id := dc.Node.Inputs[i]
	s, ok := dc.streams[id]
	if !ok {
		return nil, fmt.Errorf("ir: node %q input %d references unknown stream #%d", dc.Node.Name, i, id)
	}
	return s, nil
}

// Inputs resolves every declared input in order.
func (dc *DecodeCtx) Inputs() ([]*Stream, error) {
	out := make([]*Stream, len(dc.Node.Inputs))
	for i := range dc.Node.Inputs {
		s, err := dc.In(i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// NIn returns the declared input count.
func (dc *DecodeCtx) NIn() int { return len(dc.Node.Inputs) }

// Attrs unmarshals the node's attribute object strictly (unknown
// fields rejected). A node without attributes yields the zero value.
func (dc *DecodeCtx) Attrs(v any) error {
	if len(dc.Node.Attrs) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(dc.Node.Attrs))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ir: node %q attrs: %w", dc.Node.Name, err)
	}
	return nil
}

// BindOutputs registers the constructor's returned streams under the
// node's declared output ids and applies depth/shape/dtype overrides.
func (dc *DecodeCtx) BindOutputs(ss ...*Stream) error {
	if len(ss) != len(dc.Node.Outputs) {
		return fmt.Errorf("ir: node %q declares %d outputs, constructor produced %d",
			dc.Node.Name, len(dc.Node.Outputs), len(ss))
	}
	for i, s := range ss {
		decl := dc.Node.Outputs[i]
		if _, exists := dc.streams[decl.ID]; exists {
			return fmt.Errorf("ir: duplicate stream id #%d (node %q)", decl.ID, dc.Node.Name)
		}
		if s == nil {
			return fmt.Errorf("ir: node %q produced a nil stream", dc.Node.Name)
		}
		dc.streams[decl.ID] = s
		if decl.Depth > MaxIRStreamDepth {
			// Channel buffers allocate eagerly per stream at run time; a
			// hostile depth must fail at load, not OOM the executor.
			return fmt.Errorf("ir: node %q output #%d: depth %d exceeds %d", dc.Node.Name, decl.ID, decl.Depth, MaxIRStreamDepth)
		}
		if decl.Depth > 0 {
			s.SetDepth(decl.Depth)
		}
		if decl.Shape != nil {
			sh, err := ShapeFromIR(decl.Shape)
			if err != nil {
				return fmt.Errorf("ir: node %q output #%d: %w", dc.Node.Name, decl.ID, err)
			}
			s.OverrideShape(sh)
		}
		if decl.DType != nil {
			dt, err := DTypeFromIR(decl.DType)
			if err != nil {
				return fmt.Errorf("ir: node %q output #%d: %w", dc.Node.Name, decl.ID, err)
			}
			s.OverrideDType(dt)
		}
	}
	return nil
}

// Defer schedules fn to run after every node has been constructed; the
// relay decoder uses it to attach feedback inputs that reference
// streams produced by later nodes.
func (dc *DecodeCtx) Defer(fn func() error) {
	*dc.defers = append(*dc.defers, fn)
}

// IRDecoder rebuilds one operator kind from its NodeIR.
type IRDecoder func(dc *DecodeCtx) error

var (
	irRegistryMu sync.RWMutex
	irRegistry   = map[string]IRDecoder{}
)

// RegisterIROp registers the decoder for an operator kind. The ops
// package registers every library operator from its op table. A decoder
// records the rebuilt node's IR (SetIR): a loaded program re-encodes
// what its decoders record.
func RegisterIROp(op string, dec IRDecoder) {
	irRegistryMu.Lock()
	defer irRegistryMu.Unlock()
	if _, dup := irRegistry[op]; dup {
		panic(fmt.Sprintf("ir: duplicate decoder for op %q", op))
	}
	irRegistry[op] = dec
}

// RegisteredIROps lists the registered operator kinds, sorted.
func RegisteredIROps() []string {
	irRegistryMu.RLock()
	defer irRegistryMu.RUnlock()
	out := make([]string, 0, len(irRegistry))
	for op := range irRegistry {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// BuildIR instantiates a fresh graph from the IR by replaying every
// node through its registered constructor. Seeded content
// (TileIR.Random) decodes at seed 0 and re-derives per run (see
// Seeded). The returned graph is unvalidated; CompileIR runs Finalize.
func BuildIR(ir *ProgramIR) (*Graph, error) {
	g := New()
	env := &DecodeEnv{tileBudget: MaxIRProgramTileElems}
	streams := make(map[int]*Stream)
	var defers []func() error
	for i, n := range ir.Nodes {
		irRegistryMu.RLock()
		dec, ok := irRegistry[n.Op]
		irRegistryMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("ir: node %d (%q): unknown op %q", i, n.Name, n.Op)
		}
		if n.Name == "" {
			return nil, fmt.Errorf("ir: node %d: missing name", i)
		}
		dc := &DecodeCtx{G: g, Env: env, Node: n, streams: streams, defers: &defers}
		before := len(g.nodes)
		if err := dec(dc); err != nil {
			return nil, err
		}
		if len(g.nodes) != before+1 {
			return nil, fmt.Errorf("ir: node %d (%q): decoder created %d nodes, want 1", i, n.Name, len(g.nodes)-before)
		}
	}
	for _, fn := range defers {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Package step is a Go implementation of Streaming Tensor Programs
// (STeP), the streaming abstraction for dynamic tensor workloads on
// spatial dataflow accelerators from "Streaming Tensor Programs: A
// Streaming Abstraction for Dynamic Parallelism" (ASPLOS 2026).
//
// A STeP program is an asynchronous dataflow graph: nodes are operators,
// edges are streams of tiles, selectors, and buffer references punctuated
// by stop tokens that encode tensor structure. The package provides
//
//   - the graph builder with symbolic stream-shape verification,
//   - every STeP operator (off-chip and on-chip memory operators, dynamic
//     routing/merging, higher-order operators, shape operators),
//   - a deterministic cycle-approximate simulator with a Roofline
//     performance model, an HBM model, and on-chip scratchpad accounting,
//   - the symbolic metric equations of the paper's §4.2 (off-chip traffic
//     and on-chip memory requirements), and
//   - the evaluation workloads (MoE layers with static/dynamic tiling and
//     configuration time-multiplexing, decode attention with three
//     parallelization strategies, SwiGLU validation, end-to-end decoders).
//
// Programs are values: a graph is built once, compiled into its one
// immutable, validated Program, and run any number of times with
// Program.Run and functional options. Each Run instantiates fresh engine
// state and returns a Session (result, effective Config, captured
// streams), so repeated and concurrent runs are well-defined. A minimal
// program:
//
//	g := step.NewGraph()
//	in := step.CountSource(g, "n", 8)
//	dbl := step.Map(g, "double", in, step.MapFn{
//	    Name: "double",
//	    Apply: func(v step.Value) (step.Value, int64, error) {
//	        return step.Scalar{V: v.(step.Scalar).V * 2}, 1, nil
//	    },
//	}, step.ComputeOpts{ComputeBW: 1})
//	step.Capture(g, "out", dbl)
//	prog, err := g.Compile()
//	sess, err := prog.Run(step.WithSeed(7), step.WithSimWorkers(2))
//	// sess.Result holds the metrics; sess.Captured("out") the stream.
//
// Programs built purely from library constructors and library functions
// additionally serialize to a canonical JSON IR (Program.IR,
// step.LoadProgramIR / step.CompileProgramIR), which is what `stepctl
// program`, the scenario "program" kind, and POST /programs on the
// sweep service consume: any user-authored graph — shipped as data, no
// Go code — flows through sweeps, content-addressed caching, and HTTP
// serving.
//
// See examples/ for the paper's simplified MoE (§3.3), dynamic tiling,
// dynamic parallelization, an end-to-end decoder layer, and a
// serialized program IR.
package step

import (
	"step/internal/des"
	"step/internal/element"
	"step/internal/graph"
	"step/internal/harness"
	"step/internal/hbm"
	"step/internal/onchip"
	"step/internal/ops"
	"step/internal/scenario"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
	"step/internal/trace"
	"step/internal/workloads"
)

// Core graph types.
type (
	// Graph is a STeP program under construction (a builder). Compile it
	// into its immutable Program to run it.
	Graph = graph.Graph
	// Program is an immutable, validated, compiled STeP program.
	Program = graph.Program
	// Session is the outcome of one Program run.
	Session = graph.Session
	// RunOption configures one Program run (WithSeed, WithSimWorkers, …).
	RunOption = graph.RunOption
	// ProgramIR is the serializable program format (canonical JSON).
	ProgramIR = graph.ProgramIR
	// Stream is a dataflow edge with a symbolic shape and data type.
	Stream = graph.Stream
	// Config is the effective settings one run used, recorded in
	// Session.Config; set them with the With* run options.
	Config = graph.Config
	// Result summarizes a simulated run.
	Result = graph.Result
	// DType is a stream's data type.
	DType = graph.DType
	// TileType, SelectorType, BufferType, TupleType, ScalarType, and
	// FlagType are the stream data types of §3.1.
	TileType     = graph.TileType
	SelectorType = graph.SelectorType
	BufferType   = graph.BufferType
	TupleType    = graph.TupleType
	ScalarType   = graph.ScalarType
	FlagType     = graph.FlagType
)

// Stream element types.
type (
	// Element is one stream token: data, a stop token, or Done.
	Element = element.Element
	// Value is a data element's payload.
	Value = element.Value
	// TileVal is a data element carrying a Tile.
	TileVal = element.TileVal
	// Selector is a multi-hot routing vector.
	Selector = element.Selector
	// Scalar is an integer value (addresses, indices).
	Scalar = element.Scalar
	// Flag is a boolean value (padding indicators, acks).
	Flag = element.Flag
	// Tuple pairs two values (Zip output).
	Tuple = element.Tuple
)

// Shape types.
type (
	// Shape is a stream shape [D_N, …, D_0].
	Shape = shape.Shape
	// Dim is one dimension: static-regular, dynamic-regular, or ragged.
	Dim = shape.Dim
	// Expr is a symbolic integer expression.
	Expr = symbolic.Expr
	// Env binds symbols to values for metric evaluation.
	Env = symbolic.Env
)

// Operator function types.
type (
	// MapFn is an element-wise function for Map.
	MapFn = ops.MapFn
	// AccumFn is a reduction function for Accum and Scan.
	AccumFn = ops.AccumFn
	// FlatMapFn expands one value into a stream fragment.
	FlatMapFn = ops.FlatMapFn
	// ComputeOpts configures the Roofline model of a compute operator.
	ComputeOpts = ops.ComputeOpts
	// OffChipTensor is a tensor resident in off-chip memory.
	OffChipTensor = ops.OffChipTensor
	// CaptureOp records a stream for inspection.
	CaptureOp = ops.CaptureOp
	// Tile is a dense matrix.
	Tile = tile.Tile
	// Time is the virtual clock in cycles.
	Time = des.Time
	// SchedStats is the DES engines' scheduler counter block. Result.Sched
	// holds the counters of one run, on either engine. The counters
	// describe how the engine coordinated, so Result.Equal ignores them.
	SchedStats = des.SchedStats
)

// NewGraph creates an empty STeP program builder.
func NewGraph() *Graph { return graph.New() }

// Functional run options for Program.Run, applied on top of the §5.1
// machine (64 B/cycle on-chip memory units, 1024 B/cycle off-chip
// bandwidth).
var (
	WithSeed           = graph.WithSeed
	WithSimWorkers     = graph.WithSimWorkers
	WithHBM            = graph.WithHBM
	WithOnchip         = graph.WithOnchip
	WithChannelDepth   = graph.WithChannelDepth
	WithChannelLatency = graph.WithChannelLatency
	WithParams         = graph.WithParams
)

// Program IR entry points: load/parse a serialized program, compile it
// into a runnable Program, and the registry of serializable operator
// kinds.
var (
	LoadProgramIR    = graph.LoadProgramIR
	ParseProgramIR   = graph.ParseProgramIR
	CompileProgramIR = graph.CompileIR
	RegisteredIROps  = graph.RegisteredIROps
)

// Graph construction helpers re-exported from the ops package. Each
// corresponds to a STeP operator of §3.2 (see Tables 3–7).
var (
	// Sources and sinks.
	Source      = ops.Source
	CountSource = ops.CountSource
	Capture     = ops.Capture
	Sink        = ops.Sink
	Broadcast   = ops.Broadcast
	Take        = ops.Take
	Relay       = ops.Relay
	RelayFeed   = ops.RelayFeed

	// Off-chip memory operators (§3.2.1).
	NewOffChipTensor        = ops.NewOffChipTensor
	LinearOffChipLoad       = ops.LinearOffChipLoad
	LinearOffChipLoadStatic = ops.LinearOffChipLoadStatic
	LinearOffChipStore      = ops.LinearOffChipStore
	RandomOffChipLoad       = ops.RandomOffChipLoad
	RandomOffChipStore      = ops.RandomOffChipStore

	// On-chip memory operators (§3.2.2).
	Bufferize       = ops.Bufferize
	Streamify       = ops.Streamify
	StreamifyLinear = ops.StreamifyLinear

	// Dynamic routing and merging operators (§3.2.3).
	Partition  = ops.Partition
	Reassemble = ops.Reassemble
	EagerMerge = ops.EagerMerge

	// Higher-order operators (§3.2.4).
	Map     = ops.Map
	Map2    = ops.Map2
	Accum   = ops.Accum
	Scan    = ops.Scan
	FlatMap = ops.FlatMap

	// Shape operators (§3.2.5).
	Flatten     = ops.Flatten
	Reshape     = ops.Reshape
	Promote     = ops.Promote
	Expand      = ops.Expand
	Zip         = ops.Zip
	RepeatElems = ops.RepeatElems

	// Function library.
	MatmulFn          = ops.MatmulFn
	MatmulAccFn       = ops.MatmulAccFn
	SiLUFn            = ops.SiLUFn
	ElemMulFn         = ops.ElemMulFn
	ElemAddFn         = ops.ElemAddFn
	RowSoftmaxFn      = ops.RowSoftmaxFn
	ScaleFn           = ops.ScaleFn
	TransposeFn       = ops.TransposeFn
	RetileRowFn       = ops.RetileRowFn
	RetileColFn       = ops.RetileColFn
	RetileStreamifyFn = ops.RetileStreamifyFn
	MatmulOpts        = ops.MatmulOpts
)

// Element constructors.
var (
	// DataOf wraps a value into a data element.
	DataOf = element.DataOf
	// StopOf builds the stop token S_n.
	StopOf = element.StopOf
	// NewSelector builds a multi-hot selector.
	NewSelector = element.NewSelector
	// FormatStream renders a stream like the paper's examples.
	FormatStream = element.FormatStream
)

// DoneElem is the stream-terminating token.
var DoneElem = element.DoneElem

// Shape constructors.
var (
	// NewShape builds a shape from outermost to innermost dims.
	NewShape = shape.New
	// ShapeOfInts builds an all-static shape.
	ShapeOfInts = shape.OfInts
	// StaticDim, DynamicDim, and RaggedDim build dimensions.
	StaticDim  = shape.Static
	DynamicDim = shape.Dynamic
	RaggedDim  = shape.NamedRagged
	// StaticTile and DynamicRowTile build tile types.
	StaticTile     = graph.StaticTile
	DynamicRowTile = graph.DynamicRowTile
	// Sym and Const build symbolic expressions.
	Sym       = symbolic.Sym
	ConstExpr = symbolic.Const
)

// Tile constructors.
var (
	// NewTile allocates a zeroed tile; RandomTile a seeded pseudo-random
	// one; ShapeOnlyTile a tile without element storage (timing-only runs).
	NewTile       = tile.New
	RandomTile    = tile.Random
	ShapeOnlyTile = tile.ShapeOnly
	TileFromRows  = tile.FromRows
)

// Workload and trace entry points for the paper's evaluation.
type (
	// ModelConfig captures a model architecture (Qwen3-30B-A3B, Mixtral).
	ModelConfig = workloads.ModelConfig
	// MoELayerConfig parameterizes the MoE layer of §5.2/§5.3.
	MoELayerConfig = workloads.MoELayerConfig
	// AttentionConfig parameterizes decode attention (§5.4).
	AttentionConfig = workloads.AttentionConfig
	// DecoderConfig parameterizes the end-to-end decoder (§5.5).
	DecoderConfig = workloads.DecoderConfig
	// ExpertRouting is a per-token top-k expert assignment trace.
	ExpertRouting = trace.ExpertRouting
	// SimpleMoEConfig parameterizes the §3.3 walkthrough.
	SimpleMoEConfig = workloads.SimpleMoEConfig
	// SwiGLUConfig parameterizes the Fig. 8 validation layer.
	SwiGLUConfig = workloads.SwiGLUConfig
	// Skew classifies expert-popularity imbalance in routing traces.
	Skew = trace.Skew
	// VarianceClass buckets KV-length variability (App. B.3).
	VarianceClass = trace.VarianceClass
	// ParallelStrategy selects the attention dispatch policy (§5.4).
	ParallelStrategy = workloads.ParallelStrategy
	// DecoderResult aggregates end-to-end metrics (Fig. 17).
	DecoderResult = workloads.DecoderResult
)

// Trace and strategy constants.
const (
	SkewUniform  = trace.SkewUniform
	SkewModerate = trace.SkewModerate
	SkewHeavy    = trace.SkewHeavy

	VarLow  = trace.VarLow
	VarMed  = trace.VarMed
	VarHigh = trace.VarHigh

	StaticCoarse      = workloads.StaticCoarse
	StaticInterleaved = workloads.StaticInterleaved
	DynamicParallel   = workloads.DynamicParallel
)

var (
	// Qwen3Config and MixtralConfig are the §5.1 model architectures.
	Qwen3Config   = workloads.Qwen3Config
	MixtralConfig = workloads.MixtralConfig
	// BuildSimpleMoE builds the §3.3 walkthrough example;
	// DefaultSimpleMoEConfig reproduces the paper's dimensions.
	BuildSimpleMoE         = workloads.BuildSimpleMoE
	DefaultSimpleMoEConfig = workloads.DefaultSimpleMoEConfig
	// BuildMoELayer, BuildAttention, BuildSwiGLU, and RunDecoder build the
	// evaluation workloads.
	BuildMoELayer  = workloads.BuildMoELayer
	BuildAttention = workloads.BuildAttention
	BuildSwiGLU    = workloads.BuildSwiGLU
	RunDecoder     = workloads.RunDecoder
	// SampleExpertRouting and SampleKVLengths generate synthetic traces.
	SampleExpertRouting = trace.SampleExpertRouting
	SampleKVLengths     = trace.SampleKVLengths
)

// HBMConfig and OnchipConfig re-export the machine-model configurations.
type (
	HBMConfig    = hbm.Config
	OnchipConfig = onchip.Config
)

// Declarative scenario sweeps (internal/scenario): describe a model, a
// workload kind, and sweep axes as data — a Go struct or a JSON file —
// and compile the grid onto the workload entry points, fanned out on
// the parallel experiment harness.
type (
	// ScenarioSpec declares a scenario sweep (JSON file format).
	ScenarioSpec = scenario.Spec
	// ScenarioModelSpec names a built-in model or embeds one inline.
	ScenarioModelSpec = scenario.ModelSpec
	// RequestGroup is one slice of a heterogeneous serving batch.
	RequestGroup = scenario.RequestGroup
	// SweepSuite configures a sweep run (seed, workers, DES engine).
	SweepSuite = harness.Suite
	// SweepTable is a rendered sweep result.
	SweepTable = harness.Table
)

var (
	// LoadScenario reads and validates a spec file; ParseScenario
	// decodes one from bytes.
	LoadScenario  = scenario.Load
	ParseScenario = scenario.Parse
	// RunScenario compiles and executes a spec's sweep grid.
	RunScenario = scenario.Run
	// BuiltinScenarios lists the canned specs (re-registered paper
	// figures plus the beyond-the-paper families); LookupScenario finds
	// one by ID.
	BuiltinScenarios = scenario.Builtin
	LookupScenario   = scenario.LookupBuiltin
)

package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"step/internal/trace"
	"step/internal/workloads"
)

// Spec kinds.
const (
	// KindMoETiling sweeps static MoE tile sizes plus dynamic tiling for
	// each model at one batch size, with Pareto headline notes (the
	// Fig. 9/10/19/20 shape).
	KindMoETiling = "moe-tiling"
	// KindAttention sweeps decode attention over any combination of
	// batch sizes, KV-length means, GQA KV-head counts, heterogeneous
	// request groups, and parallelization strategies.
	KindAttention = "attention"
	// KindDecoder sweeps the end-to-end decoder over batch sizes and
	// schedules ("dynamic" or "static:<tile>").
	KindDecoder = "decoder"
	// KindProgram runs a user-authored program IR (any dataflow graph
	// expressible in the serializable program format, see internal/graph
	// ProgramIR) across a stream-FIFO-depth axis. The spec embeds the IR
	// (program) or, when loaded from a file, references one
	// (program_file).
	KindProgram = "program"
)

// ModelSpec names a model architecture: a built-in by name ("qwen",
// "mixtral"), or a fully inline workloads.ModelConfig. In JSON a bare
// string is shorthand for {"base": "..."}; an object without a "base"
// key is decoded as an inline ModelConfig.
type ModelSpec struct {
	Base   string                 `json:"base,omitempty"`
	Config *workloads.ModelConfig `json:"config,omitempty"`
}

// UnmarshalJSON accepts "qwen", {"base": "qwen"}, {"config": {...}},
// or a bare inline ModelConfig object.
func (ms *ModelSpec) UnmarshalJSON(b []byte) error {
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		return json.Unmarshal(b, &ms.Base)
	}
	var aux struct {
		Base   string                 `json:"base"`
		Config *workloads.ModelConfig `json:"config"`
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	if aux.Base == "" && aux.Config == nil {
		var mc workloads.ModelConfig
		if err := json.Unmarshal(b, &mc); err != nil {
			return err
		}
		ms.Config = &mc
		return nil
	}
	ms.Base, ms.Config = aux.Base, aux.Config
	return nil
}

// Resolve returns the named or inline architecture (unscaled).
func (ms ModelSpec) Resolve() (workloads.ModelConfig, error) {
	if ms.Config != nil {
		if ms.Base != "" {
			return workloads.ModelConfig{}, fmt.Errorf("scenario: model: base %q and an inline config are mutually exclusive", ms.Base)
		}
		return *ms.Config, nil
	}
	switch strings.ToLower(ms.Base) {
	case "qwen", "qwen3", "qwen3-30b-a3b":
		return workloads.Qwen3Config(), nil
	case "mixtral", "mixtral-8x7b":
		return workloads.MixtralConfig(), nil
	case "":
		return workloads.ModelConfig{}, fmt.Errorf("scenario: model needs a built-in base name or an inline config")
	default:
		return workloads.ModelConfig{}, fmt.Errorf("scenario: unknown built-in model %q (want qwen or mixtral)", ms.Base)
	}
}

// RequestGroup is one slice of a heterogeneous serving batch: Count
// requests, each decoding against a KV cache of exactly KVLen tokens.
type RequestGroup struct {
	Count int `json:"count"`
	KVLen int `json:"kv_len"`
}

// Spec declares a scenario sweep. The cross product of the non-empty
// axes forms the grid; each grid point is one self-contained simulation,
// so tables are byte-identical at any worker count.
type Spec struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Kind  string `json:"kind"`

	// Models lists the architectures to sweep (outermost axis).
	Models []ModelSpec `json:"models"`
	// Scale shrinks model feature dimensions uniformly (see
	// ModelConfig.Scaled); 0 or 1 runs unscaled. The paper's experiments
	// run at 8.
	Scale int `json:"scale,omitempty"`

	// Grid axes. An empty axis collapses to the corresponding fixed
	// parameter below.
	Batches []int `json:"batches,omitempty"`
	// Tiles lists static MoE tile row counts (moe-tiling kind); the
	// dynamic-tiling point is always appended.
	Tiles []int `json:"tiles,omitempty"`
	// QuickTiles, when non-empty, replaces Tiles under Suite.Quick.
	QuickTiles []int `json:"quick_tiles,omitempty"`
	// KVMeans sweeps the mean KV-cache length of sampled batches.
	KVMeans []float64 `json:"kv_means,omitempty"`
	// KVHeads sweeps grouped-query-attention KV-head counts, overriding
	// the model's KVHeads at fixed QHeads.
	KVHeads []int `json:"kv_heads,omitempty"`
	// Strategies lists attention parallelization strategies
	// ("static-coarse", "static-interleaved", "dynamic") — or, for the
	// decoder kind, schedules ("dynamic", "static:<tile>").
	Strategies []string `json:"strategies,omitempty"`
	// WorkersAxis and SimWorkersAxis are verification axes: the whole
	// sweep is executed once per harness-worker / DES-engine setting and
	// the rendered tables are required to be byte-identical, turning the
	// repository's determinism guarantee into a declarative check. The
	// table is emitted once with a note recording the matrix.
	WorkersAxis    []int `json:"workers_axis,omitempty"`
	SimWorkersAxis []int `json:"sim_workers_axis,omitempty"`

	// Fixed parameters (defaults in parentheses).
	Batch       int     `json:"batch,omitempty"`        // (64)
	KVMean      float64 `json:"kv_mean,omitempty"`      // (2048)
	KVVariance  string  `json:"kv_variance,omitempty"`  // low|med|high (med)
	Skew        string  `json:"skew,omitempty"`         // uniform|moderate|heavy (heavy)
	Regions     int     `json:"regions,omitempty"`      // attention regions (4)
	KVChunk     int     `json:"kv_chunk,omitempty"`     // KV rows per streamed tile (64)
	CoarseBlock int     `json:"coarse_block,omitempty"` // static-coarse block (0 = even split)
	DynamicCap  int     `json:"dynamic_cap,omitempty"`  // dynamic tile row bound (0 = auto)
	// Groups declares a heterogeneous serving batch; it replaces the
	// Batches axis and KV sampling with exact per-group lengths.
	Groups []RequestGroup `json:"groups,omitempty"`
	// SeedPerBatch offsets the KV trace seed by the batch size, so each
	// batch-axis point draws an independent trace (the Fig. 15 protocol).
	SeedPerBatch bool `json:"seed_per_batch,omitempty"`
	SampleLayers int  `json:"sample_layers,omitempty"` // decoder (2; 1 under Quick)
	MoERegions   int  `json:"moe_regions,omitempty"`   // decoder time-multiplexing (0 = off)
	// UseTraffic switches the moe-tiling Pareto notes from cycles to
	// off-chip traffic (the Fig. 19/20 view).
	UseTraffic bool `json:"use_traffic,omitempty"`

	// Program embeds a serializable program IR (kind "program" only):
	// the JSON document graph.EncodeIR produces / stepctl program
	// compile validates. The sweep instantiates it fresh per point.
	Program json.RawMessage `json:"program,omitempty"`
	// ProgramFile references a program IR file relative to the spec
	// file. Load resolves and embeds it into Program; specs parsed from
	// bytes (HTTP submissions) must embed the IR directly.
	ProgramFile string `json:"program_file,omitempty"`
	// Depths sweeps the default stream FIFO depth of the program kind
	// (default: the standard channel depth, 16).
	Depths []int `json:"depths,omitempty"`

	// Presentation.
	// Compare pivots the strategy axis into columns (one cycles column
	// per strategy plus a Speedup column: first strategy over last).
	Compare bool `json:"compare,omitempty"`
	// Header overrides the generated column names (length must match).
	Header []string `json:"header,omitempty"`
	// Notes are appended verbatim after any computed notes.
	Notes []string `json:"notes,omitempty"`
}

// Load reads and validates a spec file. A program-kind spec may
// reference its IR with program_file (relative to the spec file); Load
// embeds the referenced document into Program before validating.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	sp, err := decodeSpec(b)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	if sp.ProgramFile != "" {
		if sp.Kind != KindProgram {
			return Spec{}, fmt.Errorf("%s: scenario %s: field %q is not used by kind %q", path, sp.ID, "program_file", sp.Kind)
		}
		if len(sp.Program) > 0 {
			return Spec{}, fmt.Errorf("%s: scenario %s: program and program_file are mutually exclusive", path, sp.ID)
		}
		irPath := sp.ProgramFile
		if !filepath.IsAbs(irPath) {
			irPath = filepath.Join(filepath.Dir(path), irPath)
		}
		irBytes, err := os.ReadFile(irPath)
		if err != nil {
			return Spec{}, fmt.Errorf("%s: scenario %s: program_file: %w", path, sp.ID, err)
		}
		sp.Program = irBytes
		sp.ProgramFile = ""
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected,
// so a typoed axis name fails loudly instead of silently sweeping
// nothing. Specs parsed from bytes must embed program IRs directly
// (program_file is a Load-time convenience, not honored here — a server
// must not read request-supplied file paths).
func Parse(b []byte) (Spec, error) {
	sp, err := decodeSpec(b)
	if err != nil {
		return Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// decodeSpec strictly decodes a spec without validating it.
func decodeSpec(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return sp, nil
}

// resolveModels resolves, scales, and validates every model in the spec
// (the scenario-loader entry point of ModelConfig.Validate). The
// attention kind validates only the dimensions attention reads, so
// dense inline models need no MoE fields; the MoE-touching kinds
// require the full architecture.
func (sp Spec) resolveModels() ([]workloads.ModelConfig, error) {
	if len(sp.Models) == 0 {
		return nil, fmt.Errorf("scenario %s: needs at least one model", sp.ID)
	}
	validate := workloads.ModelConfig.Validate
	if sp.Kind == KindAttention {
		validate = workloads.ModelConfig.ValidateAttention
	}
	out := make([]workloads.ModelConfig, len(sp.Models))
	for i, ms := range sp.Models {
		m, err := ms.Resolve()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: model %d: %w", sp.ID, i, err)
		}
		m = m.Scaled(sp.Scale)
		if err := validate(m); err != nil {
			return nil, fmt.Errorf("scenario %s: model %d: %w", sp.ID, i, err)
		}
		out[i] = m
	}
	return out, nil
}

// batchAxis is the batch axis of a canonical attention or decoder spec.
// A groups spec is one batch whose KV lengths are exactly the groups'
// (mix labels it, e.g. "2x512+2x1024"); otherwise it is the batches
// axis, or the fixed batch, with KV lengths sampled per point.
type batchAxis struct {
	sizes        []int
	groupLens    []int
	mix          string
	seedPerBatch bool
}

func (sp Spec) batchAxis() batchAxis {
	a := batchAxis{sizes: sp.Batches, seedPerBatch: sp.SeedPerBatch}
	switch {
	case len(sp.Groups) > 0:
		var parts []string
		for _, g := range sp.Groups {
			for i := 0; i < g.Count; i++ {
				a.groupLens = append(a.groupLens, g.KVLen)
			}
			parts = append(parts, fmt.Sprintf("%dx%d", g.Count, g.KVLen))
		}
		a.mix = strings.Join(parts, "+")
		a.sizes = []int{len(a.groupLens)}
	case len(a.sizes) == 0:
		a.sizes = []int{sp.Batch}
	}
	return a
}

// kvLens returns the KV-cache lengths of batch b: the groups' exact
// lengths, or a trace sampled at mean and variance — seeded per batch
// under SeedPerBatch, so each batch-axis point draws its own trace.
func (a batchAxis) kvLens(b int, mean float64, v trace.VarianceClass, seed uint64) []int {
	if a.groupLens != nil {
		return a.groupLens
	}
	if a.seedPerBatch {
		seed += uint64(b)
	}
	return trace.SampleKVLengths(b, mean, v, seed)
}

// Validate checks the spec's structure: kind, models (scaled dimensions
// included), axis values, and strategy names.
func (sp Spec) Validate() error {
	if sp.ID == "" {
		return fmt.Errorf("scenario: spec needs an id")
	}
	// Zero means "default" for these; a negative value means nothing
	// and must not reach a compiler (or split a cache address).
	for _, f := range []struct {
		name string
		v    int
	}{
		{"scale", sp.Scale}, {"regions", sp.Regions}, {"kv_chunk", sp.KVChunk},
		{"coarse_block", sp.CoarseBlock}, {"dynamic_cap", sp.DynamicCap},
		{"sample_layers", sp.SampleLayers}, {"moe_regions", sp.MoERegions},
	} {
		if f.v < 0 {
			return fmt.Errorf("scenario %s: negative %s %d", sp.ID, f.name, f.v)
		}
	}
	if sp.Kind == KindProgram {
		return sp.validateProgram()
	}
	if len(sp.Program) > 0 {
		return fmt.Errorf("scenario %s: field %q is not used by kind %q", sp.ID, "program", sp.Kind)
	}
	if sp.ProgramFile != "" {
		return fmt.Errorf("scenario %s: field %q is not used by kind %q", sp.ID, "program_file", sp.Kind)
	}
	if len(sp.Depths) > 0 {
		return fmt.Errorf("scenario %s: field %q is not used by kind %q", sp.ID, "depths", sp.Kind)
	}
	models, err := sp.resolveModels()
	if err != nil {
		return err
	}
	for _, g := range sp.Groups {
		if g.Count < 1 || g.KVLen < 1 {
			return fmt.Errorf("scenario %s: request group needs positive count and kv_len, got %dx%d", sp.ID, g.Count, g.KVLen)
		}
	}
	for _, b := range sp.Batches {
		if b < 1 {
			return fmt.Errorf("scenario %s: non-positive batch %d", sp.ID, b)
		}
	}
	if sp.Batch < 0 {
		return fmt.Errorf("scenario %s: non-positive batch %d", sp.ID, sp.Batch)
	}
	if sp.KVMean < 0 {
		return fmt.Errorf("scenario %s: non-positive kv_mean %g", sp.ID, sp.KVMean)
	}
	for _, kv := range sp.KVMeans {
		if kv <= 0 {
			return fmt.Errorf("scenario %s: non-positive kv_means entry %g", sp.ID, kv)
		}
	}
	if _, err := parseVariance(sp.KVVariance); err != nil {
		return fmt.Errorf("scenario %s: %w", sp.ID, err)
	}
	if _, err := parseSkew(sp.Skew); err != nil {
		return fmt.Errorf("scenario %s: %w", sp.ID, err)
	}
	if err := sp.rejectIgnoredFields(); err != nil {
		return err
	}
	switch sp.Kind {
	case KindMoETiling:
		if sp.Batch < 1 {
			return fmt.Errorf("scenario %s: moe-tiling needs a positive batch", sp.ID)
		}
		if len(sp.Tiles) == 0 {
			return fmt.Errorf("scenario %s: moe-tiling needs at least one static tile size", sp.ID)
		}
		for _, ts := range append(append([]int{}, sp.Tiles...), sp.QuickTiles...) {
			if ts < 1 {
				return fmt.Errorf("scenario %s: non-positive tile size %d", sp.ID, ts)
			}
		}
	case KindAttention:
		for _, name := range sp.Strategies {
			if _, err := parseStrategy(name); err != nil {
				return fmt.Errorf("scenario %s: %w", sp.ID, err)
			}
		}
		if sp.Compare && len(sp.Strategies) < 2 {
			return fmt.Errorf("scenario %s: compare needs at least two strategies", sp.ID)
		}
		for _, kh := range sp.KVHeads {
			for _, m := range models {
				gm := m
				gm.KVHeads = kh
				if err := gm.Validate(); err != nil {
					return fmt.Errorf("scenario %s: kv_heads %d: %w", sp.ID, kh, err)
				}
			}
		}
	case KindDecoder:
		for _, name := range sp.Strategies {
			if _, err := parseSchedule(name); err != nil {
				return fmt.Errorf("scenario %s: %w", sp.ID, err)
			}
		}
		if sp.Compare {
			return fmt.Errorf("scenario %s: compare is not supported for the decoder kind", sp.ID)
		}
	case "":
		return fmt.Errorf("scenario %s: spec needs a kind (%s, %s, %s, or %s)", sp.ID, KindMoETiling, KindAttention, KindDecoder, KindProgram)
	default:
		return fmt.Errorf("scenario %s: unknown kind %q (want %s, %s, %s, or %s)", sp.ID, sp.Kind, KindMoETiling, KindAttention, KindDecoder, KindProgram)
	}
	return nil
}

// rejectIgnoredFields fails validation when a spec declares axes or
// parameters its kind does not consume — a misplaced field must fail
// loudly instead of silently sweeping nothing (e.g. a kv_means axis on
// a groups spec would run identical simulations per mean and render a
// column that suggests KV length has no effect).
func (sp Spec) rejectIgnoredFields() error {
	type field struct {
		name string
		set  bool
	}
	var ignored, groupConflicts []field
	switch sp.Kind {
	case KindProgram:
		ignored = []field{
			{"models", len(sp.Models) > 0},
			{"scale", sp.Scale != 0},
			{"batches", len(sp.Batches) > 0},
			{"tiles", len(sp.Tiles) > 0},
			{"quick_tiles", len(sp.QuickTiles) > 0},
			{"kv_means", len(sp.KVMeans) > 0},
			{"kv_heads", len(sp.KVHeads) > 0},
			{"strategies", len(sp.Strategies) > 0},
			{"batch", sp.Batch != 0},
			{"kv_mean", sp.KVMean != 0},
			{"kv_variance", sp.KVVariance != ""},
			{"skew", sp.Skew != ""},
			{"regions", sp.Regions != 0},
			{"kv_chunk", sp.KVChunk != 0},
			{"coarse_block", sp.CoarseBlock != 0},
			{"dynamic_cap", sp.DynamicCap != 0},
			{"groups", len(sp.Groups) > 0},
			{"seed_per_batch", sp.SeedPerBatch},
			{"sample_layers", sp.SampleLayers != 0},
			{"moe_regions", sp.MoERegions != 0},
			{"use_traffic", sp.UseTraffic},
			{"compare", sp.Compare},
		}
	case KindMoETiling:
		ignored = []field{
			{"batches", len(sp.Batches) > 0},
			{"kv_means", len(sp.KVMeans) > 0},
			{"kv_mean", sp.KVMean != 0},
			{"kv_heads", len(sp.KVHeads) > 0},
			{"strategies", len(sp.Strategies) > 0},
			{"groups", len(sp.Groups) > 0},
			{"compare", sp.Compare},
			{"seed_per_batch", sp.SeedPerBatch},
			{"sample_layers", sp.SampleLayers != 0},
			{"moe_regions", sp.MoERegions != 0},
			{"coarse_block", sp.CoarseBlock != 0},
			{"kv_chunk", sp.KVChunk != 0},
			{"regions", sp.Regions != 0},
			{"kv_variance", sp.KVVariance != ""},
			// The moe-tiling plan fixes the routing trace to the heavy skew; a
			// skew field here would silently do nothing (and split the
			// result-cache address of otherwise-equal specs).
			{"skew", sp.Skew != ""},
		}
	case KindAttention:
		ignored = []field{
			{"tiles", len(sp.Tiles) > 0},
			{"quick_tiles", len(sp.QuickTiles) > 0},
			{"use_traffic", sp.UseTraffic},
			{"dynamic_cap", sp.DynamicCap != 0},
			{"sample_layers", sp.SampleLayers != 0},
			{"moe_regions", sp.MoERegions != 0},
			{"skew", sp.Skew != ""},
		}
		groupConflicts = []field{
			{"batches", len(sp.Batches) > 0},
			{"batch", sp.Batch != 0},
			{"kv_means", len(sp.KVMeans) > 0},
			{"kv_mean", sp.KVMean != 0},
			{"kv_variance", sp.KVVariance != ""},
			{"seed_per_batch", sp.SeedPerBatch},
		}
	case KindDecoder:
		ignored = []field{
			{"tiles", len(sp.Tiles) > 0},
			{"quick_tiles", len(sp.QuickTiles) > 0},
			{"use_traffic", sp.UseTraffic},
			{"dynamic_cap", sp.DynamicCap != 0},
			{"kv_heads", len(sp.KVHeads) > 0},
			{"kv_means", len(sp.KVMeans) > 0},
			{"coarse_block", sp.CoarseBlock != 0},
			{"kv_chunk", sp.KVChunk != 0},
		}
		groupConflicts = []field{
			{"batches", len(sp.Batches) > 0},
			{"batch", sp.Batch != 0},
			{"kv_mean", sp.KVMean != 0},
			{"kv_variance", sp.KVVariance != ""},
			{"seed_per_batch", sp.SeedPerBatch},
		}
	}
	for _, f := range ignored {
		if f.set {
			return fmt.Errorf("scenario %s: field %q is not used by kind %q", sp.ID, f.name, sp.Kind)
		}
	}
	if len(sp.Groups) > 0 {
		for _, f := range groupConflicts {
			if f.set {
				return fmt.Errorf("scenario %s: field %q has no effect when groups fixes the batch and KV lengths", sp.ID, f.name)
			}
		}
	}
	return nil
}

// parseStrategy maps a spec strategy name onto the workload enum.
func parseStrategy(name string) (workloads.ParallelStrategy, error) {
	switch strings.ToLower(name) {
	case "static-coarse", "coarse":
		return workloads.StaticCoarse, nil
	case "static-interleaved", "interleaved":
		return workloads.StaticInterleaved, nil
	case "dynamic", "dynamic-parallel":
		return workloads.DynamicParallel, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want static-coarse, static-interleaved, or dynamic)", name)
}

// strategyColumn renders a strategy name as a Compare column prefix:
// the "static-" qualifier drops and the first letter upper-cases, so
// ["static-coarse", "dynamic"] pivots to CoarseCycles / DynamicCycles.
func strategyColumn(name string) string {
	s := strings.TrimPrefix(strings.ToLower(name), "static-")
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// decoderSchedule is a parsed decoder schedule axis value.
type decoderSchedule struct {
	label      string
	moeTile    int
	moeDynamic bool
	attn       workloads.ParallelStrategy
}

// parseSchedule maps a decoder schedule name: "dynamic" (dynamic MoE
// tiling + dynamic attention parallelization) or "static:<tile>"
// (static MoE tile + interleaved attention).
func parseSchedule(name string) (decoderSchedule, error) {
	lower := strings.ToLower(name)
	if lower == "dynamic" {
		return decoderSchedule{label: name, moeDynamic: true, attn: workloads.DynamicParallel}, nil
	}
	if rest, ok := strings.CutPrefix(lower, "static:"); ok {
		var tile int
		if _, err := fmt.Sscanf(rest, "%d", &tile); err != nil || tile < 1 {
			return decoderSchedule{}, fmt.Errorf("bad static schedule %q (want static:<tile>)", name)
		}
		return decoderSchedule{label: name, moeTile: tile, attn: workloads.StaticInterleaved}, nil
	}
	return decoderSchedule{}, fmt.Errorf("unknown schedule %q (want dynamic or static:<tile>)", name)
}

// parseVariance maps a KV-variance class name; empty defaults to med.
func parseVariance(name string) (trace.VarianceClass, error) {
	switch strings.ToLower(name) {
	case "", "med", "medium":
		return trace.VarMed, nil
	case "low":
		return trace.VarLow, nil
	case "high":
		return trace.VarHigh, nil
	}
	return 0, fmt.Errorf("unknown kv_variance %q (want low, med, or high)", name)
}

// parseSkew maps an expert-popularity skew name; empty defaults to
// heavy (the paper's representative routing trace).
func parseSkew(name string) (trace.Skew, error) {
	switch strings.ToLower(name) {
	case "", "heavy":
		return trace.SkewHeavy, nil
	case "moderate":
		return trace.SkewModerate, nil
	case "uniform":
		return trace.SkewUniform, nil
	}
	return 0, fmt.Errorf("unknown skew %q (want uniform, moderate, or heavy)", name)
}

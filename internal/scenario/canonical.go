package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"step/internal/graph"
	"step/internal/harness"
	"step/internal/trace"
	"step/internal/workloads"
)

// Defaults Canonicalize materializes. They live here only: every sweep
// runs from the canonical form, so the kind plans read spec fields
// directly and never see an unset default.
const (
	defaultBatch    = 64
	defaultKVMean   = 2048
	defaultRegions  = 4
	defaultKVChunk  = 64
	defaultStrategy = "dynamic"
)

// defaultChannelDepth is the engine's default stream FIFO depth, the
// program kind's depths axis when none is declared.
var defaultChannelDepth = graph.DefaultConfig().ChannelDepth

// autoDynamicCap is the moe-tiling rule for an unset dynamic cap: no
// bound, except 128 rows above batch 256 so experts emit tiles while
// the batch still routes (see MoELayerConfig.DynamicCap).
func autoDynamicCap(batch int) int {
	if batch > 256 {
		return 128
	}
	return 0
}

// Canonicalize returns the semantically-equivalent canonical form of a
// valid spec: the serialization the content-addressed result cache
// hashes (see Hash and internal/store), and the form every sweep runs
// from — Run, RunPoint, PointCount and TilingSweep canonicalize before
// building a plan, so this is the one place defaults and aliases are
// resolved. Two specs that canonicalize to the same value therefore
// compile to the same sweep and render byte-identical tables at a given
// seed and quick setting, by construction:
//
//   - models resolve to fully-materialized inline architectures with
//     the scale factor applied ("qwen" at scale 8 collides with the
//     equal inline config), and Scale drops to 0;
//   - defaults are materialized (batch 64, KV mean 2048, variance
//     "med", skew "heavy", 4 regions, KV chunk 64, strategies
//     ["dynamic"], the moe-tiling dynamic-cap auto rule, the program
//     kind's default depth);
//   - fixed parameters shadowed by an axis are zeroed, and a
//     single-element batches/kv_means axis collapses onto the fixed
//     parameter (the compiled grid is identical);
//   - strategy, schedule, variance, and skew aliases normalize to one
//     spelling ("coarse" -> "static-coarse", "static:016" ->
//     "static:16", "MEDIUM" -> "med"), which is the spelling rows,
//     columns and notes render.
//
// Quick-dependent fields (QuickTiles, an unset decoder SampleLayers)
// stay verbatim: their meaning depends on the suite, so the cache key
// carries the quick flag alongside the spec hash. Presentation fields
// (ID, Title, Header, Notes) and the verification axes stay too — they
// change the rendered bytes.
//
// Canonicalize validates first and is idempotent: canonicalizing a
// canonical spec returns it unchanged.
func (sp Spec) Canonicalize() (Spec, error) {
	if sp.Kind == KindProgram {
		// The program branch validates inline: canonicalizeProgram's
		// single compile subsumes the IR check a full Validate would
		// repeat (the IR compile is the expensive step for this kind).
		if sp.ID == "" {
			return Spec{}, fmt.Errorf("scenario: spec needs an id")
		}
		c := sp
		if err := c.validateProgramFields(); err != nil {
			return Spec{}, err
		}
		if err := canonicalizeProgram(&c); err != nil {
			return Spec{}, err
		}
		if len(c.Depths) == 0 {
			c.Depths = []int{defaultChannelDepth}
		}
		return c, nil
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	c := sp
	models, err := c.resolveModels()
	if err != nil {
		return Spec{}, err
	}
	c.Models = make([]ModelSpec, len(models))
	for i := range models {
		m := models[i]
		c.Models[i] = ModelSpec{Config: &m}
	}
	c.Scale = 0

	switch c.Kind {
	case KindMoETiling:
		if c.DynamicCap <= 0 {
			c.DynamicCap = autoDynamicCap(c.Batch)
		}
	case KindAttention:
		c.Strategies = canonicalStrategies(c.Strategies)
		if c.Regions == 0 {
			c.Regions = defaultRegions
		}
		if c.KVChunk == 0 {
			c.KVChunk = defaultKVChunk
		}
		if len(c.Groups) == 0 {
			// Validation guarantees these are all zero in groups mode.
			canonicalBatchAxis(&c)
			canonicalKVMeanAxis(&c)
			c.KVVariance = canonicalVariance(c.KVVariance)
		}
	case KindDecoder:
		c.Strategies = canonicalSchedules(c.Strategies)
		c.Skew = canonicalSkew(c.Skew)
		if len(c.Groups) == 0 {
			canonicalBatchAxis(&c)
			if c.KVMean == 0 {
				c.KVMean = defaultKVMean
			}
			c.KVVariance = canonicalVariance(c.KVVariance)
		}
	}
	return c, nil
}

// canonicalBatchAxis zeroes a fixed batch shadowed by the batches axis,
// collapses a single-element axis onto the fixed parameter, and
// materializes the default batch of 64.
func canonicalBatchAxis(c *Spec) {
	switch {
	case len(c.Batches) == 1:
		c.Batch, c.Batches = c.Batches[0], nil
	case len(c.Batches) > 1:
		c.Batch = 0
	case c.Batch == 0:
		c.Batch = defaultBatch
	}
}

// canonicalKVMeanAxis is the KV-mean analogue of canonicalBatchAxis
// (default 2048).
func canonicalKVMeanAxis(c *Spec) {
	switch {
	case len(c.KVMeans) == 1:
		c.KVMean, c.KVMeans = c.KVMeans[0], nil
	case len(c.KVMeans) > 1:
		c.KVMean = 0
	case c.KVMean == 0:
		c.KVMean = defaultKVMean
	}
}

// canonicalStrategies normalizes attention strategy aliases and
// materializes the ["dynamic"] default. Only valid names reach here.
func canonicalStrategies(names []string) []string {
	if len(names) == 0 {
		return []string{defaultStrategy}
	}
	out := make([]string, len(names))
	for i, name := range names {
		st, _ := parseStrategy(name)
		switch st {
		case workloads.StaticCoarse:
			out[i] = "static-coarse"
		case workloads.StaticInterleaved:
			out[i] = "static-interleaved"
		default:
			out[i] = "dynamic"
		}
	}
	return out
}

// canonicalSchedules normalizes decoder schedule aliases ("STATIC:016"
// -> "static:16") and materializes the ["dynamic"] default.
func canonicalSchedules(names []string) []string {
	if len(names) == 0 {
		return []string{defaultStrategy}
	}
	out := make([]string, len(names))
	for i, name := range names {
		ds, _ := parseSchedule(name)
		if ds.moeDynamic {
			out[i] = "dynamic"
		} else {
			out[i] = fmt.Sprintf("static:%d", ds.moeTile)
		}
	}
	return out
}

// canonicalVariance normalizes a KV-variance alias, materializing the
// "med" default.
func canonicalVariance(name string) string {
	v, _ := parseVariance(name)
	switch v {
	case trace.VarLow:
		return "low"
	case trace.VarHigh:
		return "high"
	}
	return "med"
}

// canonicalSkew normalizes an expert-popularity skew alias,
// materializing the "heavy" default.
func canonicalSkew(name string) string {
	s, _ := parseSkew(name)
	switch s {
	case trace.SkewUniform:
		return "uniform"
	case trace.SkewModerate:
		return "moderate"
	}
	return "heavy"
}

// CanonicalJSON serializes the canonical form with a stable field
// order (Spec's declaration order via encoding/json), so equal
// canonical specs produce equal bytes.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	c, err := sp.Canonicalize()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: canonical marshal: %w", sp.ID, err)
	}
	return b, nil
}

// Hash returns the SHA-256 hex digest of the spec's canonical
// serialization: the content address under which sweep results are
// cached and served. Semantically-equal specs collide by construction;
// anything that changes the rendered table bytes (including title,
// notes, header overrides, and the determinism verification axes)
// changes the hash. The execution parameters that also change bytes —
// seed and quick mode — live alongside the hash in the cache key (see
// internal/store.Key), not inside it.
func (sp Spec) Hash() (string, error) {
	b, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// PointCount returns the number of sweep points Run will execute for a
// valid spec under the given quick setting — exactly the number of
// successful Suite.OnPoint events a full run fires, so services can
// report done/total progress. An invalid spec has no points.
func (sp Spec) PointCount(quick bool) int {
	c, err := sp.Canonicalize()
	if err != nil {
		return 0
	}
	return c.pointCount(quick)
}

// pointCount is PointCount of a canonical spec. It reads the grid size
// from the same plan the driver runs (building one simulates nothing),
// and each cell of a declared Workers x SimWorkers verification matrix
// re-runs the grid.
func (sp Spec) pointCount(quick bool) int {
	p, err := sp.plan(harness.Suite{Quick: quick})
	if err != nil {
		return 0
	}
	return max(len(sp.WorkersAxis), 1) * max(len(sp.SimWorkersAxis), 1) * p.size()
}

package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"step/internal/harness"
)

// mustHash hashes a spec or fails the test.
func mustHash(t *testing.T, sp Spec) string {
	t.Helper()
	h, err := sp.Hash()
	if err != nil {
		t.Fatalf("hash %s: %v", sp.ID, err)
	}
	return h
}

// TestCanonicalHashCollidesEqualSpecs: every pair below compiles to the
// same sweep, so the canonical hashes must collide — and, since the
// store serves one spec the other's cached bytes, both must render the
// identical table.
func TestCanonicalHashCollidesEqualSpecs(t *testing.T) {
	parse := func(raw string) Spec {
		t.Helper()
		sp, err := Parse([]byte(raw))
		if err != nil {
			t.Fatalf("parse %s: %v", raw, err)
		}
		return sp
	}
	cases := map[string][2]string{
		"model alias": {
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8}`,
			`{"id": "x", "kind": "attention", "models": ["Qwen3-30B-A3B"], "scale": 8}`,
		},
		"defaults materialized": {
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8}`,
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "batch": 64, "kv_mean": 2048, "kv_variance": "med",
			  "regions": 4, "kv_chunk": 64, "strategies": ["dynamic"]}`,
		},
		"strategy alias": {
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "strategies": ["coarse", "interleaved", "dynamic-parallel"]}`,
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "strategies": ["static-coarse", "STATIC-INTERLEAVED", "dynamic"]}`,
		},
		"single-element axis collapses": {
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "batches": [16], "kv_means": [512]}`,
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "batch": 16, "kv_mean": 512}`,
		},
		"fixed parameter shadowed by axis": {
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "batches": [16, 32], "batch": 64}`,
			`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
			  "batches": [16, 32]}`,
		},
		"decoder schedule alias": {
			`{"id": "x", "kind": "decoder", "models": ["qwen"], "scale": 8,
			  "strategies": ["STATIC:016", "dynamic"]}`,
			`{"id": "x", "kind": "decoder", "models": ["qwen"], "scale": 8,
			  "strategies": ["static:16", "DYNAMIC"], "skew": "heavy", "kv_variance": "medium"}`,
		},
		"tiling dynamic-cap auto rule": {
			`{"id": "x", "kind": "moe-tiling", "models": ["qwen"], "scale": 8,
			  "batch": 1024, "tiles": [16, 64]}`,
			`{"id": "x", "kind": "moe-tiling", "models": ["qwen"], "scale": 8,
			  "batch": 1024, "tiles": [16, 64], "dynamic_cap": 128}`,
		},
	}
	for name, pair := range cases {
		a, b := parse(pair[0]), parse(pair[1])
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if ha, hb := mustHash(t, a), mustHash(t, b); ha != hb {
				ja, _ := a.CanonicalJSON()
				jb, _ := b.CanonicalJSON()
				t.Fatalf("hashes differ:\n%s\n%s", ja, jb)
			}
			s := harness.Suite{Seed: 7, Quick: true, Workers: 1}
			ta, err := Run(a, s)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := Run(b, s)
			if err != nil {
				t.Fatal(err)
			}
			if ta.String() != tb.String() || ta.CSV() != tb.CSV() {
				t.Errorf("equal hashes render different tables:\n%s\n%s", ta, tb)
			}
		})
	}
}

// TestCanonicalHashCollidesInlineModel: a named base at a scale factor
// must collide with the equal fully-inline scaled architecture.
func TestCanonicalHashCollidesInlineModel(t *testing.T) {
	named, err := Parse([]byte(`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8, "batch": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	inline := named
	models, err := named.resolveModels()
	if err != nil {
		t.Fatal(err)
	}
	inline.Models = []ModelSpec{{Config: &models[0]}}
	inline.Scale = 0
	if mustHash(t, named) != mustHash(t, inline) {
		t.Error("named+scaled model does not collide with equal inline config")
	}
}

// TestCanonicalHashSeparatesDifferentSpecs: anything that changes the
// rendered bytes must change the hash.
func TestCanonicalHashSeparatesDifferentSpecs(t *testing.T) {
	base := GQARatio()
	seen := map[string]string{"base": mustHash(t, base)}
	variants := map[string]func(*Spec){
		"id":         func(sp *Spec) { sp.ID = "other" },
		"title":      func(sp *Spec) { sp.Title = "other title" },
		"model":      func(sp *Spec) { sp.Models = []ModelSpec{{Base: "mixtral"}} },
		"batch":      func(sp *Spec) { sp.Batch = 32 },
		"axis order": func(sp *Spec) { sp.KVHeads = []int{2, 1, 4, 8, 16, 32} },
		"notes":      func(sp *Spec) { sp.Notes = []string{"annotated"} },
		"matrix":     func(sp *Spec) { sp.WorkersAxis = []int{1, 8} },
	}
	for name, mutate := range variants {
		sp := base
		mutate(&sp)
		h := mustHash(t, sp)
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("%q collides with %q", name, prev)
			}
		}
		seen[name] = h
	}
}

// TestCanonicalizeIdempotent: canonicalizing a canonical spec must be
// the identity, for every builtin spec and a groups-mode spec.
func TestCanonicalizeIdempotent(t *testing.T) {
	specs := Builtin()
	for _, sp := range specs {
		c1, err := sp.Canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", sp.ID, err)
		}
		c2, err := c1.Canonicalize()
		if err != nil {
			t.Fatalf("%s: re-canonicalize: %v", sp.ID, err)
		}
		j1, _ := json.Marshal(c1)
		j2, _ := json.Marshal(c2)
		if string(j1) != string(j2) {
			t.Errorf("%s: canonicalize is not idempotent:\n%s\n%s", sp.ID, j1, j2)
		}
	}
}

// TestCanonicalJSONRoundTrips: the canonical serialization must parse,
// validate, and hash back to itself.
func TestCanonicalJSONRoundTrips(t *testing.T) {
	for _, sp := range Builtin() {
		j, err := sp.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", sp.ID, err)
		}
		rt, err := Parse(j)
		if err != nil {
			t.Fatalf("%s: canonical JSON does not re-parse: %v\n%s", sp.ID, err, j)
		}
		if mustHash(t, sp) != mustHash(t, rt) {
			t.Errorf("%s: hash changes across a canonical round trip", sp.ID)
		}
	}
}

// TestCanonicalizeDoesNotMutate: the receiver's slices must stay
// untouched (strategies normalization works on a copy).
func TestCanonicalizeDoesNotMutate(t *testing.T) {
	sp, err := Parse([]byte(`{"id": "x", "kind": "attention", "models": ["qwen"], "scale": 8,
		"strategies": ["COARSE", "dynamic-parallel"]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), sp.Strategies...)
	if _, err := sp.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Strategies, want) {
		t.Fatalf("Canonicalize mutated the receiver: %v", sp.Strategies)
	}
}

// TestMoETilingRejectsSkew: skew would silently do nothing on the
// tiling kind (the routing trace is fixed to heavy), so it must fail
// validation instead of splitting cache addresses.
func TestMoETilingRejectsSkew(t *testing.T) {
	_, err := Parse([]byte(`{"id": "x", "kind": "moe-tiling", "models": ["qwen"], "scale": 8,
		"batch": 64, "tiles": [8], "skew": "uniform"}`))
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("skew on moe-tiling accepted: %v", err)
	}
}

// TestPointCountMatchesProgress: PointCount must equal the number of
// successful OnPoint events an actual run fires — per kind, for a
// Compare sweep (points outnumber rows), for quick-dependent tiles in
// both modes, and with a verification matrix.
func TestPointCountMatchesProgress(t *testing.T) {
	decoder, err := Parse([]byte(`{
		"id": "pc-dec", "kind": "decoder", "models": ["qwen"], "scale": 8,
		"batch": 8, "strategies": ["static:16", "dynamic"], "sample_layers": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	tiling, err := Parse([]byte(`{
		"id": "pc-tiling", "kind": "moe-tiling", "models": ["qwen"], "scale": 8,
		"batch": 16, "tiles": [8, 16, 32], "quick_tiles": [16]}`))
	if err != nil {
		t.Fatal(err)
	}
	matrix := GQARatio()
	matrix.WorkersAxis = []int{1, 2}
	cases := []struct {
		sp    Spec
		quick bool
	}{
		{Fig9(), true}, {GQARatio(), true}, {MixedServing(), true}, {decoder, true},
		{matrix, true}, {programSpec(t), true}, {Fig15(), true},
		{tiling, true}, {tiling, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.sp.ID, func(t *testing.T) {
			t.Parallel()
			var done atomic.Int64
			s := harness.Suite{Seed: 7, Quick: c.quick, OnPoint: func(ev harness.PointEvent) {
				if ev.Err == nil {
					done.Add(1)
				}
			}}
			if _, err := Run(c.sp, s); err != nil {
				t.Fatal(err)
			}
			if got, want := int(done.Load()), c.sp.PointCount(c.quick); got != want {
				t.Errorf("%d point events, PointCount says %d", got, want)
			}
		})
	}
	if a, b := tiling.PointCount(true), tiling.PointCount(false); a == b {
		t.Errorf("quick_tiles did not change the point count (%d)", a)
	}
	if rows := len(Fig15().Batches); Fig15().PointCount(true) <= rows {
		t.Errorf("Compare sweep: %d points for %d rows", Fig15().PointCount(true), rows)
	}
}

// TestCompareRowStreamsWhenGroupLands: a Compare row streams the moment
// the last point of its strategy group lands, not when the sweep ends.
// With one worker the points land in index order, so row r must arrive
// right after point (r+1)*nS-1.
func TestCompareRowStreamsWhenGroupLands(t *testing.T) {
	sp := Fig15()
	nS := len(sp.Strategies)
	var done atomic.Int64
	var rows int
	s := harness.Suite{Seed: 7, Quick: true, Workers: 1, OnPoint: func(ev harness.PointEvent) {
		if ev.Err == nil {
			done.Add(1)
		}
	}}
	_, err := RunStream(sp, s, Sink{Row: func(p PointResult) {
		if p.Index != rows {
			t.Errorf("row %d streamed out of order (want %d)", p.Index, rows)
		}
		if got, want := int(done.Load()), (p.Index+1)*nS; got != want {
			t.Errorf("row %d streamed after %d points landed, want %d", p.Index, got, want)
		}
		rows++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(sp.Batches) {
		t.Fatalf("%d rows streamed, want %d", rows, len(sp.Batches))
	}
}

// TestRunHonorsCanceledContext: a pre-canceled suite context must stop
// the sweep before any point runs.
func TestRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var done atomic.Int64
	s := harness.Suite{Seed: 7, Quick: true, Ctx: ctx, OnPoint: func(harness.PointEvent) { done.Add(1) }}
	if _, err := Run(GQARatio(), s); err == nil {
		t.Fatal("canceled context did not fail the run")
	}
	if done.Load() != 0 {
		t.Fatalf("%d points ran under a canceled context", done.Load())
	}
}

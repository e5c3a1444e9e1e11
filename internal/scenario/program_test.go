package scenario

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"step/internal/harness"
)

// examplePipelineIR reads the committed example program IR.
func examplePipelineIR(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile("../../examples/programs/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func programSpec(t *testing.T) Spec {
	return Spec{
		ID:      "prog-test",
		Kind:    KindProgram,
		Program: examplePipelineIR(t),
		Depths:  []int{2, 16},
	}
}

func TestProgramSpecValidate(t *testing.T) {
	sp := programSpec(t)
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"missing program", func(s *Spec) { s.Program = nil }, "needs an embedded program"},
		{"unresolved file", func(s *Spec) { s.ProgramFile = "x.json" }, "program_file"},
		{"models rejected", func(s *Spec) { s.Models = []ModelSpec{{Base: "qwen"}} }, `"models"`},
		{"batches rejected", func(s *Spec) { s.Batches = []int{4} }, `"batches"`},
		{"bad depth", func(s *Spec) { s.Depths = []int{0} }, "non-positive depth"},
		{"bad ir", func(s *Spec) { s.Program = []byte(`{"nodes":[{"op":"nope","name":"x"}]}`) }, "unknown op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := programSpec(t)
			c.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
	// Program fields on other kinds fail loudly.
	other := Fig9()
	other.Program = examplePipelineIR(t)
	if err := other.Validate(); err == nil || !strings.Contains(err.Error(), `"program"`) {
		t.Fatalf("program field on moe-tiling: %v", err)
	}
}

// TestProgramSpecCanonicalHash: formatting and field order of the
// embedded IR must not split the cache address, the default depth axis
// materializes, and canonicalization is idempotent.
func TestProgramSpecCanonicalHash(t *testing.T) {
	sp := programSpec(t)
	sp.Depths = nil

	// Re-indent the IR (same semantics, different bytes).
	var v any
	if err := json.Unmarshal(sp.Program, &v); err != nil {
		t.Fatal(err)
	}
	reformatted, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	sp2 := sp
	sp2.Program = reformatted

	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sp2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("reformatted IR split the hash: %s vs %s", h1, h2)
	}

	c, err := sp.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Depths) != 1 || c.Depths[0] != defaultChannelDepth {
		t.Fatalf("default depths not materialized: %v", c.Depths)
	}
	c2, err := c.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(c)
	b2, _ := json.Marshal(c2)
	if string(b1) != string(b2) {
		t.Fatalf("canonicalization not idempotent:\n %s\n %s", b1, b2)
	}
	// A different program must separate.
	sp3 := sp
	sp3.Program = []byte(strings.Replace(string(sp.Program), `"random": 13`, `"random": 14`, 1))
	h3, err := sp3.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different programs collided")
	}
}

// TestCanonicalProgramSharesCompile: canonicalizing a program spec
// memoizes its compiled program under the canonical bytes too, so the
// canonical form every later step runs (cache key, sweep, fabric
// workers) compiles nothing more.
func TestCanonicalProgramSharesCompile(t *testing.T) {
	progCache.Lock()
	progCache.m = nil // start cold: other tests compile the same document
	progCache.Unlock()
	sp := programSpec(t)
	raw, err := sp.compileProgram()
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Program) == string(sp.Program) {
		t.Fatal("example IR is already canonical; the test needs a reformatted document")
	}
	canon, err := c.compileProgram()
	if err != nil {
		t.Fatal(err)
	}
	if canon != raw {
		t.Fatal("the canonical IR compiled again instead of sharing the raw document's program")
	}
}

// TestProgramKindRun: the sweep renders one row per depth, the note
// names the program, point progress matches PointCount, and the table
// is byte-identical across the Workers x SimWorkers matrix.
func TestProgramKindRun(t *testing.T) {
	sp := programSpec(t)
	var points atomic.Int64
	s := harness.Suite{Seed: 7, Workers: 2, OnPoint: func(harness.PointEvent) { points.Add(1) }}
	tb, err := Run(sp, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Rows); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	if want := sp.PointCount(false); int(points.Load()) != want {
		t.Fatalf("progress fired %d times, PointCount = %d", points.Load(), want)
	}
	if !strings.Contains(tb.String(), "program pipeline") {
		t.Fatalf("note missing program name:\n%s", tb.String())
	}

	// Determinism matrix as a declarative check.
	spm := sp
	spm.WorkersAxis = []int{1, 4}
	spm.SimWorkersAxis = []int{1, 4}
	tbm, err := Run(spm, harness.Suite{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbm.String(), "byte-identical across Workers=[1 4] x SimWorkers=[1 4]") {
		t.Fatalf("matrix note missing:\n%s", tbm.String())
	}
	// The matrix run's rows must equal the plain run's rows.
	plain := tb.CSV()
	if matrix := tbm.CSV(); matrix != plain {
		t.Fatalf("matrix sweep rendered different rows:\n%s\nvs\n%s", matrix, plain)
	}
}

// TestProgramSpecLoadFile: a spec referencing its IR by file resolves
// relative to the spec and validates.
func TestProgramSpecLoadFile(t *testing.T) {
	sp, err := Load("../../examples/specs/program_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindProgram || len(sp.Program) == 0 || sp.ProgramFile != "" {
		t.Fatalf("file reference not embedded: kind=%q len=%d file=%q", sp.Kind, len(sp.Program), sp.ProgramFile)
	}
	// Parse (the HTTP path) must refuse file references.
	if _, err := Parse([]byte(`{"id":"x","kind":"program","program_file":"a.json"}`)); err == nil {
		t.Fatal("Parse accepted a program_file reference")
	}
}

// TestProgramSeedChangesTable: seeded random tiles re-materialize per
// run seed, so different seeds may render different tables while equal
// seeds are byte-identical (the property the cache key relies on).
func TestProgramSeedChangesTable(t *testing.T) {
	sp := programSpec(t)
	run := func(seed uint64) string {
		tb, err := Run(sp, harness.Suite{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	if run(7) != run(7) {
		t.Fatal("equal seeds rendered different tables")
	}
}

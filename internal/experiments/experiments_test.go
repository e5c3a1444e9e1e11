package experiments

import (
	"strconv"
	"strings"
	"testing"

	"step/internal/scenario"
)

// quickSuite is the short-mode configuration used by most tests.
func quickSuite() Suite { return Suite{Seed: 7, Quick: true} }

func TestAllRunnersRegistered(t *testing.T) {
	want := []string{"table1", "fig1", "fig8", "fig9", "fig10", "fig12",
		"fig13", "fig14", "fig15", "fig17", "fig18", "fig19", "fig20", "fig21"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("%d runners, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("runner %d = %s, want %s", i, got[i].ID, id)
		}
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("lookup of unknown id succeeded")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "b"}}
	tb.AddRow(1, 2.5)
	tb.Notef("note %d", 3)
	if !strings.Contains(tb.CSV(), "a,b\n1,2.5\n") {
		t.Fatalf("csv: %q", tb.CSV())
	}
	s := tb.String()
	if !strings.Contains(s, "== x: T ==") || !strings.Contains(s, "note 3") {
		t.Fatalf("string: %q", s)
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "STeP" {
		t.Fatalf("last row %v", last)
	}
	for _, c := range last[1:] {
		if c != "yes" {
			t.Fatalf("STeP should have all capabilities: %v", last)
		}
	}
}

func TestFigure1(t *testing.T) {
	tb := Figure1()
	if len(tb.Rows) != 12 { // 4 workloads x 3 platforms
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Effective bandwidth never exceeds peak.
	for _, r := range tb.Rows {
		peak, _ := strconv.ParseFloat(r[3], 64)
		eff, _ := strconv.ParseFloat(r[4], 64)
		if eff > peak+1e-9 {
			t.Fatalf("effective %f exceeds peak %f", eff, peak)
		}
	}
}

func TestFigure8(t *testing.T) {
	tb, err := Figure8(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 15 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "correlation") {
		t.Fatalf("notes: %v", tb.Notes)
	}
	// Correlation parses and is strong.
	var r float64
	if _, err := fmtSscan(tb.Notes[0], &r); err != nil {
		t.Fatalf("parse %q: %v", tb.Notes[0], err)
	}
	if r < 0.9 {
		t.Fatalf("correlation %f", r)
	}
}

// fmtSscan extracts the first float in a string.
func fmtSscan(s string, out *float64) (int, error) {
	for _, f := range strings.Fields(s) {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(f, "x"), 64); err == nil {
			*out = v
			return 1, nil
		}
	}
	return 0, strconv.ErrSyntax
}

func TestFigure9ParetoImprovement(t *testing.T) {
	tb, err := scenario.Run(scenario.Fig9(), quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	// 2 models x (4 static + 1 dynamic) rows.
	if len(tb.Rows) != 10 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, n := range tb.Notes {
		var pid float64
		if _, err := fmtSscan(strings.SplitAfter(n, "PID=")[1], &pid); err != nil {
			t.Fatalf("parse %q: %v", n, err)
		}
		if pid <= 1.0 {
			t.Errorf("dynamic tiling should break the frontier: %s", n)
		}
	}
}

func TestFigure12UtilizationRises(t *testing.T) {
	tb, err := Figure12(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tb.Notes {
		var gain float64
		if _, err := fmtSscan(strings.SplitAfter(n, "gain ")[1], &gain); err != nil {
			t.Fatalf("parse %q: %v", n, err)
		}
		if gain <= 1.5 {
			t.Errorf("time-multiplexing should raise utilization: %s", n)
		}
	}
}

func TestFigure13ResourceSavings(t *testing.T) {
	tb, err := Figure13(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestFigure14VarianceTrend(t *testing.T) {
	tb, err := Figure14(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	var speedups []float64
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, v)
	}
	if speedups[2] <= speedups[0] {
		t.Errorf("high-variance speedup %f should exceed low %f", speedups[2], speedups[0])
	}
	if speedups[2] <= 1 {
		t.Errorf("dynamic should win under high variance: %v", speedups)
	}
}

func TestFigure15SmallBatchWin(t *testing.T) {
	tb, err := scenario.Run(scenario.Fig15(), quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	first, err := strconv.ParseFloat(tb.Rows[0][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 1.5 {
		t.Errorf("batch-16 coarse/dynamic ratio %f should be large", first)
	}
}

func TestFigure18Equivalence(t *testing.T) {
	tb, err := Figure18(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r[3] != "true" {
			t.Fatalf("transform mismatch: %v", r)
		}
	}
}

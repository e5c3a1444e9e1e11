package experiments

import (
	"testing"

	"step/internal/scenario"
)

// scenarioFamilyRunners wraps the beyond-the-paper scenario families
// (GQA ratio, long-context decode, mixed serving) as registry-shaped
// runners so the determinism matrix covers them alongside the paper
// artifacts.
func scenarioFamilyRunners() []Runner {
	specs := []scenario.Spec{scenario.GQARatio(), scenario.LongContext(), scenario.MixedServing()}
	out := make([]Runner, 0, len(specs))
	for _, sp := range specs {
		sp := sp
		out = append(out, Runner{ID: sp.ID, Desc: sp.Title,
			Run: func(s Suite) (*Table, error) { return scenario.Run(sp, s) }})
	}
	return out
}

// TestWorkersDeterminism runs every registered experiment — plus the
// beyond-the-paper scenario families — sequentially (Workers=1) and on
// the pool (Workers=8) and requires the rendered tables to be
// byte-identical: the harness may only change where sweep points
// execute, never what they produce or the order they render in. The
// full Workers x SimWorkers cross for the scenario families runs in
// internal/scenario (TestWorkerMatrixDeterminism).
func TestWorkersDeterminism(t *testing.T) {
	// Short mode (the CI race job) keeps one representative of each
	// harness code path: tiling, time-multiplexing, parallelization,
	// ablation, and end-to-end. The full run covers every registry ID.
	shortSet := map[string]bool{
		"fig9": true, "fig12": true, "fig14": true, "fig17": true, "fig21": true,
		"gqa-ratio": true,
	}
	for _, r := range append(All(), scenarioFamilyRunners()...) {
		r := r
		if testing.Short() && !shortSet[r.ID] {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			seq, err := r.Run(Suite{Seed: 7, Quick: true, Workers: 1})
			if err != nil {
				t.Fatalf("Workers=1: %v", err)
			}
			par, err := r.Run(Suite{Seed: 7, Quick: true, Workers: 8})
			if err != nil {
				t.Fatalf("Workers=8: %v", err)
			}
			if got, want := par.String(), seq.String(); got != want {
				t.Errorf("rendered table differs between Workers=8 and Workers=1:\n--- Workers=8 ---\n%s\n--- Workers=1 ---\n%s", got, want)
			}
			if got, want := par.CSV(), seq.CSV(); got != want {
				t.Errorf("CSV differs between Workers=8 and Workers=1:\n--- Workers=8 ---\n%s\n--- Workers=1 ---\n%s", got, want)
			}
		})
	}
}

// TestRunAllDeterminism checks the top-level fan-out: running the whole
// registry through RunAll yields the same tables in the same order as a
// sequential pass.
func TestRunAllDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("covered per-experiment by TestWorkersDeterminism")
	}
	seq := RunAll(Suite{Seed: 7, Quick: true, Workers: 1}, All(), nil)
	par := RunAll(Suite{Seed: 7, Quick: true, Workers: 8}, All(), nil)
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", seq[i].Runner.ID, seq[i].Err, par[i].Err)
		}
		if seq[i].Runner.ID != par[i].Runner.ID {
			t.Fatalf("outcome %d order differs: %s vs %s", i, seq[i].Runner.ID, par[i].Runner.ID)
		}
		if seq[i].Table.String() != par[i].Table.String() {
			t.Errorf("%s: rendered table differs between worker counts", seq[i].Runner.ID)
		}
	}
}

// TestSimWorkersDeterminism runs every registered experiment on the
// sequential DES engine (SimWorkers=1) and on the DAM-style conservative
// parallel engine (SimWorkers=8) and requires the rendered tables to be
// byte-identical: the engines implement one virtual-time semantics, so
// per-process local clocks and goroutine scheduling may only change where
// simulation work executes, never what it computes.
func TestSimWorkersDeterminism(t *testing.T) {
	// Short mode keeps one representative of each simulator code path:
	// tiling (Serialized HBM contention), time-multiplexing (Select-heavy
	// routing), dynamic parallelization (feedback loops), ablation, and
	// end-to-end decoding.
	shortSet := map[string]bool{
		"fig9": true, "fig12": true, "fig14": true, "fig17": true, "fig21": true,
		"mixed-serving": true,
	}
	for _, r := range append(All(), scenarioFamilyRunners()...) {
		r := r
		if testing.Short() && !shortSet[r.ID] {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			seq, err := r.Run(Suite{Seed: 7, Quick: true, Workers: 1, SimWorkers: 1})
			if err != nil {
				t.Fatalf("SimWorkers=1: %v", err)
			}
			par, err := r.Run(Suite{Seed: 7, Quick: true, Workers: 1, SimWorkers: 8})
			if err != nil {
				t.Fatalf("SimWorkers=8: %v", err)
			}
			if got, want := par.String(), seq.String(); got != want {
				t.Errorf("rendered table differs between SimWorkers=8 and SimWorkers=1:\n--- SimWorkers=8 ---\n%s\n--- SimWorkers=1 ---\n%s", got, want)
			}
			if got, want := par.CSV(), seq.CSV(); got != want {
				t.Errorf("CSV differs between SimWorkers=8 and SimWorkers=1:\n--- SimWorkers=8 ---\n%s\n--- SimWorkers=1 ---\n%s", got, want)
			}
		})
	}
}

package scenario

import (
	"sync/atomic"
	"testing"

	"step/internal/harness"
)

// decoderExecSpec is a small decoder-kind sweep with a schedule axis,
// so the exec tests cover the decoder's note computation too.
func decoderExecSpec() Spec {
	return Spec{
		ID:         "decoder-exec",
		Title:      "decoder exec seam",
		Kind:       KindDecoder,
		Models:     []ModelSpec{{Base: "qwen"}},
		Scale:      PaperScale,
		Batch:      16,
		Strategies: []string{"static:16", "dynamic"},
	}
}

// execSpecs is one spec per kind compiler, chosen to exercise the
// tricky render paths: the moe-tiling flat grid with Pareto notes, a
// plain attention sweep with endpoint-ratio notes, a Compare-pivoted
// attention sweep (points that render no row of their own), a decoder
// schedule comparison, and a program depth sweep.
func execSpecs(t *testing.T) []Spec {
	return []Spec{Fig9(), GQARatio(), Fig15(), decoderExecSpec(), programSpec(t)}
}

// TestRunPointFeedsByteIdenticalTables is the scenario half of the
// distributed determinism gate: a sweep whose every point result is
// produced by RunPoint — the worker-side single-lease entry point,
// running under a different DES engine than the coordinator — and
// shipped back as raw JSON must render a table byte-identical to the
// plain local run.
func TestRunPointFeedsByteIdenticalTables(t *testing.T) {
	for _, sp := range execSpecs(t) {
		sp := sp
		t.Run(sp.ID, func(t *testing.T) {
			t.Parallel()
			local := harness.Suite{Seed: 7, Quick: true, Workers: 4}
			want, err := Run(sp, local)
			if err != nil {
				t.Fatal(err)
			}
			// The "worker" runs each point with a different engine and
			// worker budget; neither may change the shipped bytes.
			worker := harness.Suite{Seed: 7, Quick: true, Workers: 1, SimWorkers: 2}
			var remote atomic.Int64
			got, err := RunStreamExec(sp, local, Sink{}, Exec{
				Remote: func(idx int) ([]byte, error) {
					raw, err := RunPoint(sp, worker, idx)
					if err != nil {
						return nil, err
					}
					remote.Add(1)
					return raw, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("distributed table diverges from local run:\nlocal:\n%s\ndistributed:\n%s", want.String(), got.String())
			}
			if got.CSV() != want.CSV() {
				t.Fatal("distributed CSV diverges from local run")
			}
			if remote.Load() == 0 {
				t.Fatal("remote executor never ran")
			}
		})
	}
}

// TestRunStreamExecMixedFallback: a dispatcher that hands every other
// point back to local execution (the no-workers / dying-worker path)
// still renders byte-identical tables — remote and local points mix
// freely within one sweep.
func TestRunStreamExecMixedFallback(t *testing.T) {
	sp := Fig9()
	local := harness.Suite{Seed: 7, Quick: true, Workers: 4}
	want, err := Run(sp, local)
	if err != nil {
		t.Fatal(err)
	}
	var remote, fellBack atomic.Int64
	got, err := RunStreamExec(sp, local, Sink{}, Exec{
		Remote: func(idx int) ([]byte, error) {
			if idx%2 == 1 {
				fellBack.Add(1)
				return nil, ErrLocalPoint
			}
			raw, err := RunPoint(sp, harness.Suite{Seed: 7, Quick: true, Workers: 1}, idx)
			if err != nil {
				return nil, err
			}
			remote.Add(1)
			return raw, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("mixed-fallback table diverges:\nlocal:\n%s\nmixed:\n%s", want.String(), got.String())
	}
	if remote.Load() == 0 || fellBack.Load() == 0 {
		t.Fatalf("want both paths exercised, got remote=%d fallback=%d", remote.Load(), fellBack.Load())
	}
}

// TestRunPointOutOfRange: indices outside the grid fail loudly instead
// of shipping a zero-valued result.
func TestRunPointOutOfRange(t *testing.T) {
	sp := Fig9()
	if _, err := RunPoint(sp, harness.Suite{Seed: 7, Quick: true}, sp.PointCount(true)); err == nil {
		t.Fatal("point index past the grid accepted")
	}
	if _, err := RunPoint(sp, harness.Suite{Seed: 7, Quick: true}, -1); err == nil {
		t.Fatal("negative point index accepted")
	}
}

package scenario

// The execution seam that makes sweep points remotely dispatchable. A
// sweep point is fully determined by (canonical spec, seed, quick,
// point index), so distribution needs two primitives: RunPoint (the
// worker side of a lease) returns one point's raw JSON result, and
// RunStreamExec (the coordinator side) feeds such results to the same
// render hooks as local execution. Rows and notes always render
// locally, so where a point ran never touches the rendered bytes.

import (
	"errors"

	"step/internal/harness"
)

// ErrLocalPoint is the sentinel an Exec.Remote dispatcher returns to
// hand a point back to local execution (e.g. no workers are joined, or
// the fabric is draining). The point then runs through the ordinary
// local path; mixing remote and local points within one sweep is sound
// because both produce identical results.
var ErrLocalPoint = errors.New("scenario: point must run locally")

// Exec configures where RunStreamExec's sweep points execute.
type Exec struct {
	// Remote, when non-nil, dispatches point idx and returns the raw
	// JSON-encoded point result a RunPoint call for the same (spec,
	// seed, quick, idx) produced. Return ErrLocalPoint to run the point
	// locally instead; any other error fails the sweep through the
	// harness's first-error path. Remote is called concurrently from
	// pool workers.
	Remote func(idx int) ([]byte, error)
}

// RunPoint executes exactly one point of the spec's sweep grid — index
// idx in the same flattened order RunStream dispatches — and returns
// its raw JSON-encoded result. The verification matrix is ignored: a
// matrix cell re-runs the same grid, so its points are these points.
// The result depends only on (spec, seed, quick, idx); Workers and
// SimWorkers choices never change it.
func RunPoint(sp Spec, s harness.Suite, idx int) ([]byte, error) {
	sp, err := sp.Canonicalize()
	if err != nil {
		return nil, err
	}
	p, err := sp.plan(s)
	if err != nil {
		return nil, err
	}
	return p.raw(idx)
}

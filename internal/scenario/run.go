package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"step/internal/harness"
)

// Run compiles the spec's grid and executes it on the suite's worker
// pool, returning the rendered table. When the spec declares
// WorkersAxis / SimWorkersAxis, the whole sweep runs once per setting
// and the rendered tables must be byte-identical — the determinism
// guarantee as a declarative check — with the matrix recorded in a note.
func Run(sp Spec, s harness.Suite) (*harness.Table, error) {
	return RunStream(sp, s, Sink{})
}

// RunStream is Run with live row delivery: rows are pushed to sink as
// their simulations complete, out of index order, and the returned
// table is assembled from those same rendered rows — reassembling the
// stream in index order reproduces the batch artifact byte for byte.
// Under a verification matrix only the first cell streams; the
// remaining cells re-run silently and are compared as usual.
func RunStream(sp Spec, s harness.Suite, sink Sink) (*harness.Table, error) {
	return RunStreamExec(sp, s, sink, Exec{})
}

// RunStreamExec is RunStream with a pluggable point executor: when
// x.Remote is set, each grid point's raw result may be fetched from a
// remote worker (see Exec and RunPoint) instead of simulated on the
// local pool. Row rendering, note computation, and table assembly stay
// local either way, so the rendered bytes are independent of where —
// and in what mix — points executed. Every cell of a declared
// verification matrix re-dispatches through the same executor.
func RunStreamExec(sp Spec, s harness.Suite, sink Sink, x Exec) (*harness.Table, error) {
	sp, err := sp.Canonicalize()
	if err != nil {
		return nil, err
	}
	points := sp.pointCount(s.Quick)
	runCell := func(s harness.Suite, sink Sink) (*harness.Table, error) {
		p, err := sp.plan(s)
		if err != nil {
			return nil, err
		}
		return p.run(sp, s, newStreamSink(sink, points), x.Remote)
	}
	if len(sp.WorkersAxis) == 0 && len(sp.SimWorkersAxis) == 0 {
		return runCell(s, sink)
	}
	wAxis, swAxis := sp.WorkersAxis, sp.SimWorkersAxis
	if len(wAxis) == 0 {
		wAxis = []int{s.Workers}
	}
	if len(swAxis) == 0 {
		swAxis = []int{s.SimWorkers}
	}
	var base *harness.Table
	var baseW, baseSW int
	for _, w := range wAxis {
		for _, sw := range swAxis {
			// Each cell re-runs the sweep at its own Workers/SimWorkers
			// setting; the caller's cancellation context and progress
			// sink carry over. When the caller already holds a shared
			// worker pool (the sweep service budgets all concurrent jobs
			// through one pool), the cells draw from it instead of
			// minting their own — the Workers cell value then only
			// labels the re-run, which is sound because tables are
			// byte-identical at any worker count. Standalone callers
			// (CLI, tests) have no pool yet, so each cell gets a fresh
			// one sized to exactly w workers.
			sub := s
			sub.Workers, sub.SimWorkers = w, sw
			cell := Sink{}
			if base == nil {
				cell = sink // only the first cell streams rows
			}
			tb, err := runCell(sub, cell)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: Workers=%d SimWorkers=%d: %w", sp.ID, w, sw, err)
			}
			if base == nil {
				base, baseW, baseSW = tb, w, sw
				continue
			}
			if tb.String() != base.String() || tb.CSV() != base.CSV() {
				return nil, fmt.Errorf("scenario %s: determinism violation: table at Workers=%d SimWorkers=%d differs from Workers=%d SimWorkers=%d",
					sp.ID, w, sw, baseW, baseSW)
			}
		}
	}
	base.Notef("byte-identical across Workers=%v x SimWorkers=%v", wAxis, swAxis)
	return base, nil
}

// plan is one kind's sweep grid stated as data: everything a kind
// knows — its axes, its simulation call, its cell and note arithmetic —
// and nothing about how points are scheduled, streamed, or dispatched.
// Building a plan resolves axes only; it simulates and samples nothing,
// so PointCount can afford one on the submit path.
type plan[R any] struct {
	header []string
	// points is the flat grid size; group consecutive points render one
	// row (the strategies of a Compare row), so the table has
	// points/group rows.
	points, group int
	// point simulates grid point i. It must be self-contained: the
	// result depends only on the spec, the suite's seed, quick flag and
	// engine, and i.
	point func(i int) (R, error)
	// row renders row r from its group's results, returning the cells
	// and the row's axis coordinates.
	row func(r int, group []R) (cells []any, coords map[string]string)
	// notes, when non-nil, computes headline notes from every result.
	notes func(all []R) ([]string, error)
}

// sweep is a plan with its result type erased, so the kind switch can
// hand any kind's plan to the driver.
type sweep interface {
	size() int
	run(sp Spec, s harness.Suite, ss *streamSink, remote func(int) ([]byte, error)) (*harness.Table, error)
	raw(i int) ([]byte, error)
}

// plan builds the sweep plan of a canonical spec under suite s (seed,
// quick flag and DES engine are baked into the point function). The
// kind plans read spec fields as Canonicalize left them: defaults
// materialized, aliases in their one spelling.
func (sp Spec) plan(s harness.Suite) (sweep, error) {
	switch sp.Kind {
	case KindMoETiling:
		return moeTilingPlan(sp, s)
	case KindAttention:
		return attentionPlan(sp, s)
	case KindDecoder:
		return decoderPlan(sp, s)
	case KindProgram:
		return programPlan(sp, s)
	}
	return nil, fmt.Errorf("scenario %s: unknown kind %q", sp.ID, sp.Kind)
}

func (p plan[R]) size() int { return p.points }

// run is the one sweep driver every kind shares. It applies the header
// override, announces the table, and fans the grid out on the suite's
// pool — each point simulated locally or fetched raw from remote (which
// may hand it back with ErrLocalPoint). Rows render in the OnPoint hook
// as points land: row r renders the moment the last point of its group
// lands, so streaming never waits for the sweep to end. The table is
// assembled from the streamed rows, then the computed and the spec's
// notes are appended.
func (p plan[R]) run(sp Spec, s harness.Suite, ss *streamSink, remote func(int) ([]byte, error)) (*harness.Table, error) {
	t := &harness.Table{ID: sp.ID, Title: sp.Title, Header: p.header}
	if err := overrideHeader(sp, t); err != nil {
		return nil, err
	}
	ss.start(t, p.points/p.group)
	// Landing points park their results; in multi-point groups the
	// point that brings its row's countdown to zero renders the row.
	// The atomic decrement chain orders every parked write of a group
	// before that render's reads.
	parked := make([]R, p.points)
	var left []atomic.Int32
	if p.group > 1 {
		left = make([]atomic.Int32, p.points/p.group)
		for i := range left {
			left[i].Store(int32(p.group))
		}
	}
	// The caller's own hook (services count live progress through it)
	// still sees every event first.
	prev := s.OnPoint
	s = s.EnsurePool()
	s.OnPoint = func(ev harness.PointEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Err != nil {
			return
		}
		parked[ev.Index] = ev.Row.(R)
		r := ev.Index / p.group
		if left != nil && left[r].Add(-1) != 0 {
			return
		}
		cells, coords := p.row(r, parked[r*p.group:(r+1)*p.group])
		ss.row(r, harness.FormatRow(cells...), coords, ev.Duration)
	}
	point := p.point
	if remote != nil {
		point = func(i int) (R, error) {
			var v R
			b, err := remote(i)
			if errors.Is(err, ErrLocalPoint) {
				return p.point(i)
			}
			if err != nil {
				return v, err
			}
			if err := json.Unmarshal(b, &v); err != nil {
				return v, fmt.Errorf("scenario: decode remote point %d: %w", i, err)
			}
			return v, nil
		}
	}
	results, err := harness.ParMap(s, p.points, point)
	if err != nil {
		return nil, err
	}
	t.Rows = ss.take()
	if p.notes != nil {
		notes, err := p.notes(results)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, notes...)
	}
	t.Notes = append(t.Notes, sp.Notes...)
	return t, nil
}

// raw simulates point i alone and returns its JSON-encoded result.
func (p plan[R]) raw(i int) ([]byte, error) {
	if i < 0 || i >= p.points {
		return nil, fmt.Errorf("scenario: point %d outside sweep of %d points", i, p.points)
	}
	v, err := p.point(i)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode point %d: %w", i, err)
	}
	return b, nil
}

// overrideHeader applies the spec's Header override, enforcing that the
// declared names cover exactly the generated columns.
func overrideHeader(sp Spec, t *harness.Table) error {
	if len(sp.Header) == 0 {
		return nil
	}
	if len(sp.Header) != len(t.Header) {
		return fmt.Errorf("scenario %s: header override has %d names, sweep renders %d columns (%v)",
			sp.ID, len(sp.Header), len(t.Header), t.Header)
	}
	t.Header = append([]string(nil), sp.Header...)
	return nil
}

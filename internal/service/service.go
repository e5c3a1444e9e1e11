package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"step/internal/fabric"
	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/store"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"   // simulated by this job, result stored
	StateCached   State = "cached" // served from the store, nothing simulated
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCached, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Options configures a Service.
type Options struct {
	// Executors bounds how many sweeps run concurrently (default 2).
	Executors int
	// Workers sizes the harness token pool all executors share (0 =
	// one per CPU). Per the harness's calling-goroutine rule, each
	// executor is itself one implicit worker, so total simulation
	// concurrency is bounded by (Workers - 1) shared tokens plus
	// Executors implicit workers. With Workers 1 (or a single CPU)
	// there is no shared pool: each sweep — including each cell of a
	// spec's workers_axis verification matrix — bounds its own
	// concurrency instead.
	Workers int
	// SimWorkers selects the DES engine per simulation (see harness).
	SimWorkers int
	// QueueCap bounds queued-but-not-started jobs (default 256); Submit
	// fails fast once the backlog is full.
	QueueCap int
	// MaxHistory bounds retained job records (default 1024): past it,
	// the oldest *terminal* jobs are forgotten — their results stay in
	// the store, but their ids answer 404. Queued and running jobs are
	// never evicted, so a long-lived server's memory stays bounded by
	// history + backlog instead of growing with total traffic.
	MaxHistory int
	// GitDescribe is recorded in result manifests (best-effort).
	GitDescribe string
	// Fabric configures the distributed-sweep coordinator (lease and
	// worker TTLs). Zero values select the fabric defaults; with no
	// workers joined the fabric is inert and every point runs locally.
	Fabric fabric.Options
}

// Job is an immutable snapshot of one submission.
type Job struct {
	ID     string `json:"id"`
	SpecID string `json:"spec_id"`
	Key    string `json:"key"` // content address (store key)
	Seed   uint64 `json:"seed"`
	Quick  bool   `json:"quick"`
	State  State  `json:"state"`
	// PointsDone / PointsTotal are live per-point sweep progress;
	// cached jobs jump straight to total.
	PointsDone  int       `json:"points_done"`
	PointsTotal int       `json:"points_total"`
	Error       string    `json:"error,omitempty"`
	CreatedAt   time.Time `json:"created_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// job is the mutable record behind a Job snapshot.
type job struct {
	id   string
	key  string
	spec scenario.Spec // canonical: the sweep, key and manifest all read it
	// specJSON is spec's canonical serialization, the self-contained
	// payload of every fabric lease.
	specJSON []byte
	seed     uint64
	quick    bool
	total    int

	ctx    context.Context
	cancel context.CancelFunc
	done   atomic.Int64 // completed sweep points
	bc     *broadcast   // per-job stream buffer (see stream.go)

	mu       sync.Mutex
	state    State
	err      string
	notes    []string // table notes, set by execute before finishing
	created  time.Time
	started  time.Time
	finished chan struct{} // closed exactly once on any terminal state
	doneAt   time.Time
}

// snapshot renders the job under its lock.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := int(j.done.Load())
	if j.state == StateCached || j.state == StateDone {
		done = j.total
	}
	return Job{
		ID: j.id, SpecID: j.spec.ID, Key: j.key, Seed: j.seed, Quick: j.quick,
		State: j.state, PointsDone: done, PointsTotal: j.total,
		Error: j.err, CreatedAt: j.created, StartedAt: j.started, FinishedAt: j.doneAt,
	}
}

// finish moves the job to a terminal state once; later calls are
// ignored (e.g. a cancellation racing the executor's own completion).
// The job's context is released here, so every terminal path — fast
// cached answers, queue overflow, executor completion — frees it.
// The terminal stream event is published after the lock drops, closing
// the job's broadcast so subscribers drain and disconnect.
func (j *job) finish(s State, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state, j.err, j.doneAt = s, errMsg, time.Now()
	close(j.finished)
	j.cancel()
	notes := j.notes
	var elapsed int64
	if !j.started.IsZero() {
		elapsed = j.doneAt.Sub(j.started).Milliseconds()
	}
	j.mu.Unlock()
	j.bc.publish(StreamEvent{
		Type: EventDone, State: string(s),
		Notes: notes, Error: errMsg, ElapsedMS: elapsed,
	})
}

// Service is the sweep job queue.
type Service struct {
	st    *store.Store
	opts  Options
	suite harness.Suite // shared pool: EnsurePool'd once
	fab   *fabric.Coordinator

	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	order    []string        // submission order, for List
	inflight map[string]*job // store key -> the job computing it
	queue    chan *job
	closed   bool
	wg       sync.WaitGroup
}

// New starts a service draining the queue with opts.Executors
// goroutines. Close releases them.
func New(st *store.Store, opts Options) *Service {
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 256
	}
	if opts.MaxHistory <= 0 {
		opts.MaxHistory = 1024
	}
	s := &Service{
		st:   st,
		opts: opts,
		// One shared token pool across every executor: concurrent
		// sweeps divide the same Workers budget instead of multiplying.
		suite:    harness.Suite{Workers: opts.Workers, SimWorkers: opts.SimWorkers}.EnsurePool(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		queue:    make(chan *job, opts.QueueCap),
		fab:      fabric.New(opts.Fabric),
	}
	for i := 0; i < opts.Executors; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	return s
}

// Close stops accepting submissions, cancels outstanding jobs, and
// waits for the executors to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Cancel in sorted-ID order so shutdown behavior never depends on map
	// iteration order (stepvet: determinism).
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	close(s.queue)
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	// Closing the fabric resolves every in-flight Dispatch with
	// ErrNoWorkers, so canceled executors unblock promptly.
	s.fab.Close()
	s.wg.Wait()
	// Queued jobs the executors never reached die canceled.
	for _, j := range jobs {
		j.finish(StateCanceled, "service closed")
	}
}

// ErrQueueFull is returned by Submit when the backlog is at capacity.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrClosed is returned by Submit once the service is shutting down.
var ErrClosed = errors.New("service: closed")

// Submit canonicalizes (and so validates) the spec, addresses it, and
// enqueues a job that runs the canonical form. A store hit is answered
// immediately with a cached job; otherwise the job starts queued and an
// executor picks it up.
func (s *Service) Submit(sp scenario.Spec, seed uint64, quick bool) (Job, error) {
	sp, err := sp.Canonicalize() // validates
	if err != nil {
		return Job{}, err
	}
	key, err := store.Key(sp, seed, quick)
	if err != nil {
		return Job{}, err
	}
	cj, err := sp.CanonicalJSON()
	if err != nil {
		return Job{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		key: key, spec: sp, specJSON: cj, seed: seed, quick: quick,
		total: sp.PointCount(quick),
		ctx:   ctx, cancel: cancel,
		bc:       newBroadcast(),
		created:  time.Now(),
		state:    StateQueued,
		finished: make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return Job{}, ErrClosed
	}
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.mu.Unlock()

	// Fast path: the result already exists — no queue round trip.
	if _, ok, err := s.st.Get(key); err == nil && ok {
		j.finish(StateCached, "")
		return j.snapshot(), nil
	}
	// Enqueue under the lock: Close closes the queue, so the closed
	// check and the send must be atomic.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.finish(StateCanceled, "service closed")
		return j.snapshot(), ErrClosed
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		j.finish(StateFailed, ErrQueueFull.Error())
		return j.snapshot(), ErrQueueFull
	}
	return j.snapshot(), nil
}

// run executes one dequeued job: serve from the store, or claim the
// key and sweep. When another job is already computing the same key,
// the job becomes a single-flight follower on its own goroutine — the
// executor is released immediately, so duplicate submissions of a slow
// spec cannot park executors and starve unrelated queued work.
func (s *Service) run(j *job) {
	if j.ctx.Err() != nil {
		j.finish(StateCanceled, context.Cause(j.ctx).Error())
		return
	}
	if j.terminal() {
		return // canceled while queued
	}
	if _, ok, err := s.st.Get(j.key); err == nil && ok {
		j.finish(StateCached, "")
		return
	}
	s.mu.Lock()
	runner := s.inflight[j.key]
	if runner == nil {
		s.inflight[j.key] = j
		s.mu.Unlock()
		s.execute(j)
		s.mu.Lock()
		delete(s.inflight, j.key)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	go s.follow(j, runner)
}

// follow waits for the runner computing this job's key, then answers
// from the store; if the runner died without a result (failed or
// canceled), the job re-enters the queue to claim the key itself.
func (s *Service) follow(j *job, runner *job) {
	select {
	case <-runner.finished:
	case <-j.ctx.Done():
		j.finish(StateCanceled, context.Cause(j.ctx).Error())
		return
	}
	if _, ok, err := s.st.Get(j.key); err == nil && ok {
		j.finish(StateCached, "")
		return
	}
	// No result: sweeps are deterministic, so a *failed* runner would
	// fail identically here — inherit its error instead of re-running
	// the whole failing sweep once per duplicate submission. A
	// canceled runner says nothing about the spec; re-claim the key.
	if rs := runner.snapshot(); rs.State == StateFailed {
		j.finish(StateFailed, rs.Error)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.finish(StateCanceled, "service closed")
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		j.finish(StateFailed, ErrQueueFull.Error())
	}
}

// terminal reports whether the job already finished.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// pruneLocked evicts the oldest terminal jobs past the MaxHistory
// bound; live jobs are never evicted. The caller holds s.mu (lock
// order is always s.mu before j.mu, so the terminal() check is safe).
func (s *Service) pruneLocked() {
	excess := len(s.order) - s.opts.MaxHistory
	if excess <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// execute runs the sweep for a claimed key, streaming rows into the
// job's broadcast and the store's journal as they land. On success the
// journal commits into the cache entry; a store error fails the job.
func (s *Service) execute(j *job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state, j.started = StateRunning, time.Now()
	j.mu.Unlock()

	jn, err := s.st.BeginJournal(j.key)
	if err != nil {
		j.finish(StateFailed, err.Error())
		return
	}

	suite := s.suite
	suite.Seed = j.seed
	suite.Quick = j.quick
	suite.Ctx = j.ctx
	suite.OnPoint = func(ev harness.PointEvent) {
		if ev.Err == nil {
			j.bc.publish(StreamEvent{Type: EventProgress, PointsDone: int(j.done.Add(1))})
		}
	}

	sink := jn.Sink(j.spec.ID, scenario.Sink{
		Start: func(st scenario.StreamStart) {
			j.bc.publish(StreamEvent{
				Type: EventStart, JobID: j.id, SpecID: j.spec.ID, Key: j.key,
				Title: st.Title, Header: st.Header,
				RowsTotal: st.Rows, PointsTotal: st.Points,
			})
		},
		Row: func(p scenario.PointResult) {
			j.bc.publish(StreamEvent{Type: EventRow, Index: p.Index, Cells: p.Cells, Coords: p.Coords})
		},
	})

	// Offer points to the worker fabric when workers are joined; with an
	// empty fleet Dispatch answers ErrNoWorkers immediately and the
	// point runs on this executor instead. The canonical spec ships in
	// every lease, so a work unit is self-contained.
	work := fabric.Work{Key: j.key, Spec: j.specJSON, Seed: j.seed, Quick: j.quick}
	x := scenario.Exec{Remote: func(idx int) ([]byte, error) {
		raw, err := s.fab.Dispatch(j.ctx, work, idx)
		if errors.Is(err, fabric.ErrNoWorkers) {
			return nil, scenario.ErrLocalPoint
		}
		return raw, err
	}}

	start := time.Now()
	tb, err := scenario.RunStreamExec(j.spec, suite, sink, x)
	if err != nil {
		jn.Abort()
		if j.ctx.Err() != nil {
			j.finish(StateCanceled, context.Cause(j.ctx).Error())
		} else {
			j.finish(StateFailed, err.Error())
		}
		return
	}
	j.mu.Lock()
	j.notes = tb.Notes
	j.mu.Unlock()
	entry, err := store.NewEntry(j.spec, j.seed, j.quick, tb.String(), tb.CSV(), s.opts.GitDescribe, time.Since(start))
	if err == nil {
		jn.Finish(tb.Notes)
		err = s.st.CommitJournal(jn, entry)
	}
	if err != nil {
		jn.Abort()
		j.finish(StateFailed, err.Error())
		return
	}
	j.finish(StateDone, "")
}

// Get returns a snapshot of the job.
func (s *Service) Get(id string) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// List returns snapshots of every job in submission order.
func (s *Service) List() []Job {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// Finished exposes the job's completion channel (closed on any
// terminal state), so callers can wait with their own timeout.
func (s *Service) Finished(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.finished, true
}

// Cancel stops a job: a queued job dies immediately, a running job's
// context cancels — the sweep stops dispatching points and in-flight
// simulations run to completion (see harness.Suite.Ctx). Cancel
// reports whether the job exists; canceling a finished job is a no-op.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel()
	// A queued job has no executor to notice the context yet.
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		j.finish(StateCanceled, context.Canceled.Error())
	}
	return true
}

// ErrNotReady is returned by Table while the job has not produced a
// result yet.
var ErrNotReady = errors.New("service: job has no result yet")

// Table returns the stored result for a finished job.
func (s *Service) Table(id string) (*store.Entry, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	j.mu.Lock()
	state, errMsg := j.state, j.err
	j.mu.Unlock()
	switch state {
	case StateDone, StateCached:
		e, ok, err := s.st.Get(j.key)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("service: result %s evicted from store", j.key)
		}
		return e, nil
	case StateFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, errMsg)
	case StateCanceled:
		return nil, fmt.Errorf("service: job %s canceled", id)
	}
	return nil, ErrNotReady
}

package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNoWorkers reports that a point could not be (or stay) dispatched
// because no live workers are joined. Callers fall back to local
// execution — the service maps it onto scenario.ErrLocalPoint.
var ErrNoWorkers = errors.New("fabric: no live workers joined")

// Options configures a Coordinator. Zero values select the defaults.
type Options struct {
	// LeaseTTL is how long a lease stays valid without a heartbeat
	// (default 15s). Workers heartbeat at a fraction of this, so the
	// TTL is the re-dispatch latency after a worker dies mid-point.
	LeaseTTL time.Duration
	// WorkerTTL is how long a worker stays live without contacting the
	// coordinator (default 45s; must exceed LongPoll).
	WorkerTTL time.Duration
	// LongPoll caps how long a lease request parks waiting for work
	// (default 10s); workers re-poll immediately after.
	LongPoll time.Duration
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 45 * time.Second
	}
	if o.LongPoll <= 0 {
		o.LongPoll = 10 * time.Second
	}
	return o
}

// Work identifies a sweep whose points are being dispatched: the
// content-address key, the canonical spec JSON, and the execution
// parameters. Together with a point index it is a complete work unit.
type Work struct {
	Key   string
	Spec  []byte // canonical spec JSON (scenario.Spec.CanonicalJSON)
	Seed  uint64
	Quick bool
}

// Lease is one granted work unit, the coordinator-to-worker half of
// the wire protocol.
type Lease struct {
	ID    string          `json:"id"`
	Key   string          `json:"key"`
	Spec  json.RawMessage `json:"spec"`
	Point int             `json:"point"`
	Seed  uint64          `json:"seed"`
	Quick bool            `json:"quick"`
	TTLMS int64           `json:"ttl_ms"`
}

// Result is the worker-to-coordinator half: the raw JSON-encoded point
// result scenario.RunPoint returns, or the error the point died with.
type Result struct {
	Point int             `json:"point"`
	Raw   json.RawMessage `json:"raw,omitempty"`
	Error string          `json:"error,omitempty"`
}

// Stats is a snapshot of the coordinator's counters, for tests and the
// workers endpoint.
type Stats struct {
	Workers      int // live workers
	Pending      int // tasks waiting for a lease
	ActiveLeases int
	Completed    int64 // results accepted
	Redispatched int64 // leases expired and re-queued (or failed over local)
	Stale        int64 // results rejected because their lease was gone
	WorkerErrors int64 // worker-reported point errors, failed over local
}

// outcome resolves one Dispatch call.
type outcome struct {
	raw []byte
	err error
}

// task is one point waiting to execute remotely.
type task struct {
	work    Work
	point   int
	ch      chan outcome // buffered(1); receives exactly one outcome
	done    bool         // resolved (delivered or abandoned); guarded by c.mu
	leaseID string       // non-empty while leased; guarded by c.mu
}

type lease struct {
	id       string
	workerID string
	t        *task
	expires  time.Time
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	leases   int
}

// waiter is a parked lease request.
type waiter struct {
	ch chan *task // buffered(1); sends happen under c.mu
}

// Coordinator tracks joined workers, hands out leases, and re-dispatches
// the points of expired leases. It is safe for concurrent use.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	closed  bool
	seq     int
	workers map[string]*workerState
	pending []*task
	waiters []*waiter
	leases  map[string]*lease

	completed    int64
	redispatched int64
	stale        int64
	workerErrors int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New starts a coordinator (and its expiry janitor). Close releases it.
func New(opts Options) *Coordinator {
	c := &Coordinator{
		opts:        opts.withDefaults(),
		workers:     make(map[string]*workerState),
		leases:      make(map[string]*lease),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go c.janitor()
	return c
}

// Close stops the janitor and resolves every outstanding task with
// ErrNoWorkers, so in-flight sweeps finish on local executors.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, t := range c.pending {
		c.deliverLocked(t, nil, ErrNoWorkers)
	}
	c.pending = nil
	for id, l := range c.leases {
		delete(c.leases, id)
		l.t.leaseID = ""
		c.deliverLocked(l.t, nil, ErrNoWorkers)
	}
	c.mu.Unlock()
	close(c.janitorStop)
	<-c.janitorDone
}

// Live reports the number of live (recently seen) workers.
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked(time.Now())
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Workers:      c.liveLocked(time.Now()),
		Pending:      len(c.pending),
		ActiveLeases: len(c.leases),
		Completed:    c.completed,
		Redispatched: c.redispatched,
		Stale:        c.stale,
		WorkerErrors: c.workerErrors,
	}
}

func (c *Coordinator) liveLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.opts.WorkerTTL {
			n++
		}
	}
	return n
}

// Dispatch offers one point to the worker fleet and blocks until a
// result lands, the point fails over to local execution (ErrNoWorkers:
// no live workers now, or none left after lease expiries), or ctx is
// canceled. The returned bytes are the worker's raw encoded point
// result, ready for scenario's remote decode path.
func (c *Coordinator) Dispatch(ctx context.Context, w Work, point int) ([]byte, error) {
	t := &task{work: w, point: point, ch: make(chan outcome, 1)}
	c.mu.Lock()
	if c.closed || c.liveLocked(time.Now()) == 0 {
		c.mu.Unlock()
		return nil, ErrNoWorkers
	}
	c.enqueueLocked(t)
	c.mu.Unlock()

	select {
	case out := <-t.ch:
		return out.raw, out.err
	case <-ctx.Done():
	}
	// Canceled: withdraw the task so a late worker answer is rejected
	// as stale; a delivery that raced the cancel still wins.
	c.mu.Lock()
	if !t.done {
		t.done = true
		c.removePendingLocked(t)
		if t.leaseID != "" {
			delete(c.leases, t.leaseID)
			t.leaseID = ""
		}
	}
	c.mu.Unlock()
	select {
	case out := <-t.ch:
		return out.raw, out.err
	default:
		return nil, ctx.Err()
	}
}

// deliverLocked resolves a task exactly once. Caller holds c.mu.
func (c *Coordinator) deliverLocked(t *task, raw []byte, err error) {
	if t.done {
		return
	}
	t.done = true
	t.leaseID = ""
	t.ch <- outcome{raw: raw, err: err}
}

// enqueueLocked hands a task to a parked lease request, or queues it.
// Caller holds c.mu.
func (c *Coordinator) enqueueLocked(t *task) {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		select {
		case w.ch <- t:
			return
		default:
			// Waiter already timed out and drained; try the next.
		}
	}
	c.pending = append(c.pending, t)
}

func (c *Coordinator) removePendingLocked(t *task) {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

func (c *Coordinator) removeWaiterLocked(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// register adds (or renames) a worker and returns its id.
func (c *Coordinator) register(name string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", errors.New("fabric: coordinator closed")
	}
	c.seq++
	id := fmt.Sprintf("worker-%d", c.seq)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now()}
	return id, nil
}

// touchLocked refreshes a worker's liveness; false when unknown (it
// was expired, or never joined) — the worker must re-join.
func (c *Coordinator) touchLocked(workerID string) bool {
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// grantLocked creates a lease binding task to worker. Caller holds c.mu.
func (c *Coordinator) grantLocked(workerID string, t *task) Lease {
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("lease-%d", c.seq),
		workerID: workerID,
		t:        t,
		expires:  time.Now().Add(c.opts.LeaseTTL),
	}
	c.leases[l.id] = l
	t.leaseID = l.id
	if w, ok := c.workers[workerID]; ok {
		w.leases++
	}
	return Lease{
		ID:    l.id,
		Key:   t.work.Key,
		Spec:  json.RawMessage(t.work.Spec),
		Point: t.point,
		Seed:  t.work.Seed,
		Quick: t.work.Quick,
		TTLMS: c.opts.LeaseTTL.Milliseconds(),
	}
}

// lease grants the next pending task to workerID, parking up to wait
// when none is queued. ok is false when the poll timed out empty.
// unknown is true when the worker is not registered (it must re-join).
func (c *Coordinator) lease(ctx context.Context, workerID string, wait time.Duration) (ls Lease, ok, unknown bool) {
	if wait <= 0 || wait > c.opts.LongPoll {
		wait = c.opts.LongPoll
	}
	c.mu.Lock()
	if c.closed || !c.touchLocked(workerID) {
		c.mu.Unlock()
		return Lease{}, false, true
	}
	if len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		ls = c.grantLocked(workerID, t)
		c.mu.Unlock()
		return ls, true, false
	}
	w := &waiter{ch: make(chan *task, 1)}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case t := <-w.ch:
		c.mu.Lock()
		// The long poll kept the worker live while parked.
		c.touchLocked(workerID)
		ls = c.grantLocked(workerID, t)
		c.mu.Unlock()
		return ls, true, false
	case <-timer.C:
		c.mu.Lock()
		c.removeWaiterLocked(w)
		c.touchLocked(workerID)
		// A task may have been handed over just before removal.
		select {
		case t := <-w.ch:
			ls = c.grantLocked(workerID, t)
			c.mu.Unlock()
			return ls, true, false
		default:
		}
		c.mu.Unlock()
		return Lease{}, false, false
	case <-ctx.Done():
		c.mu.Lock()
		c.removeWaiterLocked(w)
		select {
		case t := <-w.ch:
			// The client is gone; put the task back for someone else.
			c.enqueueLocked(t)
		default:
		}
		c.mu.Unlock()
		return Lease{}, false, false
	}
}

// heartbeat extends a live lease's TTL; false when the lease is gone
// (expired and re-dispatched, or already committed).
func (c *Coordinator) heartbeat(leaseID, workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(workerID)
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.expires = time.Now().Add(c.opts.LeaseTTL)
	return true
}

// complete commits a lease's result. A gone lease — expired, canceled,
// or already committed — is reported stale (the at-most-once rule); a
// worker-reported point error fails the point over to local execution
// instead of failing the sweep, since a deterministic error reproduces
// locally and an environmental one should not poison the job.
func (c *Coordinator) complete(leaseID string, res Result) (stale bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[leaseID]
	if !ok {
		c.stale++
		return true, nil
	}
	delete(c.leases, leaseID)
	if w, ok := c.workers[l.workerID]; ok {
		w.lastSeen = time.Now()
		w.leases--
	}
	t := l.t
	t.leaseID = ""
	if res.Point != t.point {
		// A confused worker: treat its lease as lost and re-dispatch.
		c.redispatched++
		if !t.done {
			c.enqueueLocked(t)
		}
		return false, fmt.Errorf("fabric: lease %s is for point %d, result says %d", leaseID, t.point, res.Point)
	}
	if res.Error != "" {
		c.workerErrors++
		c.deliverLocked(t, nil, ErrNoWorkers)
		return false, nil
	}
	c.completed++
	c.deliverLocked(t, append([]byte(nil), res.Raw...), nil)
	return false, nil
}

// janitor periodically expires silent workers and lapsed leases,
// re-dispatching orphaned points — to the remaining fleet, or to local
// execution when no live workers are left.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	tick := c.opts.LeaseTTL / 4
	if wt := c.opts.WorkerTTL / 4; wt < tick {
		tick = wt
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-tk.C:
		}
		c.mu.Lock()
		now := time.Now()
		for id, w := range c.workers {
			if now.Sub(w.lastSeen) > c.opts.WorkerTTL {
				delete(c.workers, id)
			}
		}
		live := len(c.workers)
		for id, l := range c.leases {
			if now.Before(l.expires) {
				continue
			}
			delete(c.leases, id)
			l.t.leaseID = ""
			if w, ok := c.workers[l.workerID]; ok {
				w.leases--
			}
			if l.t.done {
				continue
			}
			c.redispatched++
			if live == 0 {
				c.deliverLocked(l.t, nil, ErrNoWorkers)
			} else {
				c.enqueueLocked(l.t)
			}
		}
		if live == 0 && len(c.pending) > 0 {
			// The fleet died: release waiting points to local executors
			// rather than parking sweeps on a worker that may never come.
			for _, t := range c.pending {
				c.deliverLocked(t, nil, ErrNoWorkers)
			}
			c.pending = nil
		}
		c.mu.Unlock()
	}
}

// Package onchip models the SDA's software-managed scratchpad tier.
// Bufferize operators allocate logical buffers here; the allocator tracks
// live and peak occupancy so experiments can report on-chip memory
// requirements, and enforces an optional capacity to surface schedules
// that do not fit.
//
// Accounting is deterministic on both DES engines: every allocation is
// attributed to the process making it and appends to that process's
// event log (no cross-process synchronization on the hot path), and the
// live/peak/capacity numbers are resolved after the run by replaying the
// merged log in (virtual time, process ID, per-process order) order —
// the same tie rule the engines use for Serialized critical sections.
package onchip

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"step/internal/des"
)

// Config describes the on-chip memory tier.
type Config struct {
	// BandwidthBytesPerCycle is the per-memory-unit read/write bandwidth
	// used by the Roofline operator model (§4.3). The paper's evaluation
	// uses 64 B/cycle per unit (§5.1); the Fig. 8 validation uses 256.
	BandwidthBytesPerCycle int64
	// CapacityBytes bounds total scratchpad usage; 0 means unlimited
	// (capacity is then only *reported*, matching the paper's methodology
	// of measuring the on-chip requirement of each schedule).
	CapacityBytes int64
}

// DefaultConfig matches §5.1.
func DefaultConfig() Config {
	return Config{BandwidthBytesPerCycle: 64}
}

// opEvent is one allocation-size change at a virtual time.
type opEvent struct {
	at    des.Time
	pid   int
	seq   int64
	delta int64
}

// shard is one process's private event log; only that process appends.
type shard struct {
	events []opEvent
	seq    int64
}

// Scratchpad tracks on-chip allocations.
type Scratchpad struct {
	cfg    Config
	nextID atomic.Int64

	mu     sync.RWMutex
	shards []*shard // indexed by process ID
}

// New creates a scratchpad.
func New(cfg Config) *Scratchpad {
	if cfg.BandwidthBytesPerCycle <= 0 {
		panic(fmt.Sprintf("onchip: non-positive bandwidth %d", cfg.BandwidthBytesPerCycle))
	}
	return &Scratchpad{cfg: cfg}
}

// Config returns the configuration.
func (s *Scratchpad) Config() Config { return s.cfg }

// shardFor returns p's private log, growing the table on first use.
func (s *Scratchpad) shardFor(p *des.Process) *shard {
	pid := p.ID()
	s.mu.RLock()
	if pid < len(s.shards) && s.shards[pid] != nil {
		sh := s.shards[pid]
		s.mu.RUnlock()
		return sh
	}
	s.mu.RUnlock()
	s.mu.Lock()
	for pid >= len(s.shards) {
		s.shards = append(s.shards, nil)
	}
	if s.shards[pid] == nil {
		s.shards[pid] = &shard{}
	}
	sh := s.shards[pid]
	s.mu.Unlock()
	return sh
}

func (s *Scratchpad) log(p *des.Process, delta int64) {
	sh := s.shardFor(p)
	sh.events = append(sh.events, opEvent{at: p.Now(), pid: p.ID(), seq: sh.seq, delta: delta})
	sh.seq++
}

// Alloc reserves bytes at p's current virtual time and returns a buffer
// ID. Accounting is deferred and deterministic: a capacity violation
// surfaces from Resolve after the run, in replay order, rather than
// aborting mid-simulation.
func (s *Scratchpad) Alloc(p *des.Process, bytes int64) (int, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("onchip: negative allocation %d", bytes)
	}
	s.log(p, bytes)
	return int(s.nextID.Add(1)), nil
}

// Free releases bytes previously allocated at p's current virtual time;
// freeing more than is live surfaces from Resolve.
func (s *Scratchpad) Free(p *des.Process, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("onchip: bad free of %d", bytes))
	}
	s.log(p, -bytes)
}

// Resolve replays the merged event log and returns the final live
// bytes, the peak, and the first capacity violation or over-free in
// replay order (nil if none). Call it only when no process is
// concurrently allocating, i.e. after the run.
func (s *Scratchpad) Resolve() (live, peak int64, err error) {
	s.mu.RLock()
	var all []opEvent
	for _, sh := range s.shards {
		if sh != nil {
			all = append(all, sh.events...)
		}
	}
	s.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.seq < b.seq
	})
	for _, ev := range all {
		live += ev.delta
		if live > peak {
			peak = live
		}
		if live < 0 && err == nil {
			err = fmt.Errorf("onchip: bad free of %d at t=%d (live went negative)", -ev.delta, ev.at)
		}
		if ev.delta > 0 && s.cfg.CapacityBytes > 0 && live > s.cfg.CapacityBytes && err == nil {
			err = fmt.Errorf("onchip: allocation of %d bytes at t=%d exceeds capacity (%d live of %d)",
				ev.delta, ev.at, live-ev.delta, s.cfg.CapacityBytes)
		}
	}
	return live, peak, err
}

// AccessCycles returns the Roofline time to move bytes through one on-chip
// memory unit.
func (s *Scratchpad) AccessCycles(bytes int64) des.Time {
	if bytes <= 0 {
		return 0
	}
	return des.Time((bytes + s.cfg.BandwidthBytesPerCycle - 1) / s.cfg.BandwidthBytesPerCycle)
}

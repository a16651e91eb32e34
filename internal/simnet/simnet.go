// Package simnet is a deterministic discrete-event network simulator.
//
// It reproduces the role of the paper's 3.0 KLOC C++ event-based simulator
// (§5.1): a virtual clock, an event heap, seeded randomness, message delivery
// with per-pair WAN latencies, RPC timeouts, and node churn. Every run with
// the same seed and parameters is bit-for-bit reproducible.
//
// Events fire in the total order (at, seq): by virtual firing time, and
// events due at the same instant in the order they were scheduled. Cancelled
// events are skipped. Cancelling a timer also drops its callback, so
// whatever the callback captured is released at once rather than when its
// deadline would have passed.
//
// The simulator itself is single-goroutine by design: protocol handlers run
// inline when their events fire, so no synchronization is needed inside the
// protocols under test.
package simnet

import (
	"math/rand"
	"time"
)

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing and releases its callback. The
// remaining events still fire in (at, seq) order. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	t.cancelled = true
	t.fn = nil
}

// event is one queue entry. The (at, seq) key sits inline so heap
// comparisons never dereference the timer; seq is unique, so the order is
// total and simultaneous events fire in scheduling order, which keeps runs
// deterministic.
type event struct {
	at  time.Duration
	seq uint64
	t   *Timer
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now    time.Duration
	events eventHeap
	rng    *rand.Rand
	seq    uint64
	fired  uint64
}

// New returns a simulator whose randomness derives entirely from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's random source. All protocol randomness must
// come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (s *Simulator) Pending() int { return len(s.events) }

// After schedules fn to run delay after the current virtual time and returns
// a cancellable handle. Negative delays are clamped to zero.
func (s *Simulator) After(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	t := &Timer{fn: fn}
	s.events.push(event{at: s.now + delay, seq: s.seq, t: t})
	s.seq++
	return t
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now. The returned stop function cancels future firings.
func (s *Simulator) Every(period time.Duration, fn func()) (stop func()) {
	stopped := false
	var schedule func()
	schedule = func() {
		s.After(period, func() {
			if stopped {
				return
			}
			fn()
			if !stopped {
				schedule()
			}
		})
	}
	schedule()
	return func() { stopped = true }
}

// Step executes the next pending event, advancing the clock to its firing
// time. It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.t.cancelled {
			continue
		}
		s.now = e.at
		s.fired++
		e.t.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or the clock would pass
// `until`, and returns the number of events executed. Events scheduled at
// exactly `until` still fire.
func (s *Simulator) Run(until time.Duration) uint64 {
	start := s.fired
	for s.reapCancelled() && s.events[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return s.fired - start
}

// RunAll drains the entire event queue.
func (s *Simulator) RunAll() uint64 {
	start := s.fired
	for s.Step() {
	}
	return s.fired - start
}

// reapCancelled pops cancelled events off the top of the queue and reports
// whether a live event remains at the top.
func (s *Simulator) reapCancelled() bool {
	for len(s.events) > 0 {
		if !s.events[0].t.cancelled {
			return true
		}
		s.events.pop()
	}
	return false
}

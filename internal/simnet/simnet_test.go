package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events must fire in scheduling order, got %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	timer.Cancel()
	// The callback is dropped at once, so whatever it captured does not
	// stay reachable until the event's deadline is reaped.
	if timer.fn != nil {
		t.Error("cancelled timer still holds its callback")
	}
	s.RunAll()
	if fired {
		t.Error("cancelled timer fired")
	}
}

// TestQueueMatchesReferenceOrder drives the event queue with a seeded mix
// of After (many at equal times, some from inside callbacks), Cancel, Step
// and Run(until), and checks the firing order against a reference sort of
// every scheduled event by (at, seq), minus those cancelled before firing.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	type sched struct {
		at        time.Duration
		seq       int
		timer     *Timer
		fired     bool
		cancelled bool // cancelled before it fired
	}
	rng := rand.New(rand.NewSource(99))
	s := New(1)
	var all []*sched
	var order []int // seqs in firing order
	live := 0       // scheduled, not yet fired or cancelled
	var after func(delay time.Duration)
	after = func(delay time.Duration) {
		e := &sched{at: s.Now() + max(delay, 0), seq: len(all)}
		all = append(all, e)
		live++
		e.timer = s.After(delay, func() {
			if s.Now() != e.at {
				t.Fatalf("event %d fired at %v, scheduled for %v", e.seq, s.Now(), e.at)
			}
			e.fired = true
			live--
			order = append(order, e.seq)
			if rng.Intn(4) == 0 {
				after(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
		})
	}
	for op := 0; op < 8000; op++ {
		switch r := rng.Intn(20); {
		case r < 12:
			// Few distinct delays, so many events share a firing time;
			// a few negative delays exercise the clamp.
			after(time.Duration(rng.Intn(12)-1) * time.Millisecond)
		case r < 16:
			// Mostly recent events, which are likelier still pending;
			// some are already fired or cancelled (both no-ops).
			if len(all) > 0 {
				e := all[len(all)-1-rng.Intn(min(len(all), 64))]
				if !e.fired && !e.cancelled {
					e.cancelled = true
					live--
				}
				e.timer.Cancel()
			}
		case r < 19:
			before := live
			if stepped := s.Step(); stepped != (before > 0) {
				t.Fatalf("op %d: Step reported %v with %d live events", op, stepped, before)
			}
		default:
			until := s.Now() + time.Duration(rng.Intn(3))*time.Millisecond
			s.Run(until)
			if s.Now() != until {
				t.Fatalf("op %d: Run(%v) left the clock at %v", op, until, s.Now())
			}
			for _, e := range all {
				if !e.fired && !e.cancelled && e.at <= until {
					t.Fatalf("op %d: Run(%v) left event %d at %v unfired", op, until, e.seq, e.at)
				}
			}
		}
	}
	s.RunAll()
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after RunAll", s.Pending())
	}

	ref := make([]*sched, 0, len(all))
	for _, e := range all {
		if !e.cancelled {
			ref = append(ref, e)
		}
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].at != ref[j].at {
			return ref[i].at < ref[j].at
		}
		return ref[i].seq < ref[j].seq
	})
	if len(order) != len(ref) {
		t.Fatalf("%d events fired, reference expects %d", len(order), len(ref))
	}
	for i, e := range ref {
		if order[i] != e.seq {
			t.Fatalf("firing %d: event %d, reference expects event %d", i, order[i], e.seq)
		}
	}
	if uint64(len(order)) != s.Fired() {
		t.Errorf("Fired() = %d, callbacks ran %d times", s.Fired(), len(order))
	}
	if len(all) < 5000 || len(all)-len(ref) < 500 {
		t.Fatalf("weak mix: %d scheduled, %d cancelled", len(all), len(all)-len(ref))
	}
	t.Logf("%d scheduled, %d cancelled, %d fired", len(all), len(all)-len(ref), len(order))
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.After(5*time.Second, func() {})
	s.Run(5 * time.Second)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.RunAll()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if s.Now() != 5*time.Second {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	n := s.Run(2 * time.Second)
	if n != 2 {
		t.Errorf("Run returned %d events, want 2", n)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestRunAdvancesClockWithoutEvents(t *testing.T) {
	s := New(1)
	s.Run(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Errorf("clock = %v, want 10s", s.Now())
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	stop := s.Every(time.Second, func() { count++ })
	s.Run(5500 * time.Millisecond)
	if count != 5 {
		t.Errorf("periodic fired %d times, want 5", count)
	}
	stop()
	s.Run(20 * time.Second)
	if count != 5 {
		t.Errorf("periodic fired after stop: %d", count)
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = s.Every(time.Second, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	s.Run(time.Minute)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(42)
		var out []time.Duration
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, func() { out = append(out, s.Now()) })
		}
		s.RunAll()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

type testMsg struct{ bytes int }

func (m testMsg) Size() int { return m.bytes }

func TestRPCRoundTrip(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(from Address, req Message) (Message, bool) {
		if from != 0 {
			t.Errorf("from = %v, want 0", from)
		}
		return testMsg{bytes: 200}, true
	})
	var gotResp Message
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 100}, time.Second, func(m Message, err error) {
		gotResp, gotErr = m, err
	})
	s.RunAll()
	if gotErr != nil {
		t.Fatalf("rpc error: %v", gotErr)
	}
	if gotResp.Size() != 200 {
		t.Errorf("resp size = %d, want 200", gotResp.Size())
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("round trip took %v, want 20ms", s.Now())
	}
}

func TestRPCTimeoutDeadNode(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(Address, Message) (Message, bool) { return testMsg{}, true })
	n.SetAlive(1, false)
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 1}, 500*time.Millisecond, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", gotErr)
	}
	if s.Now() != 500*time.Millisecond {
		t.Errorf("timeout fired at %v, want 500ms", s.Now())
	}
}

func TestRPCDropByHandler(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(1, func(Address, Message) (Message, bool) { return nil, false })
	var gotErr error
	n.Call(0, 1, testMsg{bytes: 1}, 100*time.Millisecond, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", gotErr)
	}
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestRPCUnreachable(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 1)
	var gotErr error
	n.Call(0, 55, testMsg{}, time.Second, func(m Message, err error) { gotErr = err })
	s.RunAll()
	if gotErr != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", gotErr)
	}
}

func TestTimeoutDoesNotDoubleFire(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 10 * time.Millisecond}, 2)
	n.Bind(1, func(Address, Message) (Message, bool) { return testMsg{}, true })
	calls := 0
	n.Call(0, 1, testMsg{}, time.Hour, func(Message, error) { calls++ })
	s.RunAll()
	if calls != 1 {
		t.Errorf("callback fired %d times, want 1", calls)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: time.Millisecond}, 2)
	n.Bind(0, func(Address, Message) (Message, bool) { return nil, false })
	n.Bind(1, func(Address, Message) (Message, bool) { return testMsg{bytes: 70}, true })
	n.Call(0, 1, testMsg{bytes: 30}, time.Second, func(Message, error) {})
	s.RunAll()
	if got := n.Stats(0); got.BytesSent != 30 || got.BytesReceived != 70 {
		t.Errorf("caller stats = %+v", got)
	}
	if got := n.Stats(1); got.BytesSent != 70 || got.BytesReceived != 30 {
		t.Errorf("callee stats = %+v", got)
	}
}

func TestSendOneWay(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, ConstantLatency{D: 3 * time.Millisecond}, 2)
	var got Message
	n.Bind(1, func(from Address, req Message) (Message, bool) {
		got = req
		return nil, false
	})
	n.Send(0, 1, testMsg{bytes: 9})
	s.RunAll()
	if got == nil || got.Size() != 9 {
		t.Errorf("one-way message not delivered: %v", got)
	}
}

func TestChurnerLifecycle(t *testing.T) {
	s := New(7)
	c := NewChurner(s, 10*time.Second)
	deaths, rejoins := 0, 0
	c.OnDeath = func(Address) { deaths++ }
	c.OnRejoin = func(Address) { rejoins++ }
	for i := 0; i < 50; i++ {
		c.Track(Address(i))
	}
	s.Run(10 * time.Minute)
	if deaths == 0 {
		t.Fatal("no churn occurred")
	}
	if rejoins != deaths {
		t.Errorf("rejoins = %d, deaths = %d; every death must be followed by a rejoin", rejoins, deaths)
	}
	// With mean lifetime 10s over 600s and 50 slots, expect roughly
	// 50*600/10 = 3000 deaths; allow generous tolerance.
	if deaths < 1500 || deaths > 4500 {
		t.Errorf("deaths = %d, far from expected ~3000", deaths)
	}
}

func TestChurnerDisabled(t *testing.T) {
	s := New(7)
	c := NewChurner(s, 0)
	c.OnDeath = func(Address) { t.Error("death with churn disabled") }
	c.Track(1)
	s.Run(time.Hour)
	if c.Deaths() != 0 {
		t.Errorf("deaths = %d, want 0", c.Deaths())
	}
}

func TestChurnerExponentialMean(t *testing.T) {
	s := New(99)
	c := NewChurner(s, time.Minute)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += c.Lifetime()
	}
	mean := sum / n
	if mean < 55*time.Second || mean > 65*time.Second {
		t.Errorf("empirical mean lifetime = %v, want ≈1m", mean)
	}
}

func BenchmarkEventLoop(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i), func() {})
	}
	s.RunAll()
}

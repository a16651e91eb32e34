package main

import (
	"path"
	"reflect"
	"sort"
	"time"

	"github.com/octopus-dht/octopus/internal/transport"
)

// timingTransport decorates a simulator transport for the traced sim-ring
// run: it times every bound handler by the Go package and type of the
// message it handles, every RPC callback by the package and type of the
// request, and every After/Every callback, counting only the outermost call
// so that time is never attributed twice. It adds no event, draws no
// randomness and reorders nothing, so the seeded run it wraps stays
// bit-identical. The simulator runs on one goroutine, so no locking.
type timingTransport struct {
	transport.Transport
	size  int
	depth int
	spans map[string]*span // "handle chord.GetTableReq", "reply core.X", "timer"
	names map[reflect.Type][2]string
}

// span is the accumulated outermost time and call count of one category.
type span struct {
	d time.Duration
	n uint64
}

func newTimingTransport(inner transport.Transport, size int) *timingTransport {
	return &timingTransport{Transport: inner, size: size,
		spans: map[string]*span{}, names: map[reflect.Type][2]string{}}
}

// Size forwards the slot count core.BuildNetwork checks for the CA slot.
func (t *timingTransport) Size() int { return t.size }

// keys returns the handler and reply span keys of a message's type, named
// "<package>.<Type>" as in "handle chord.GetTableReq".
func (t *timingTransport) keys(m transport.Message) [2]string {
	ty := reflect.TypeOf(m)
	k, ok := t.names[ty]
	if !ok {
		name := "nil"
		if ty != nil {
			el := ty
			if el.Kind() == reflect.Pointer {
				el = el.Elem()
			}
			name = path.Base(el.PkgPath()) + "." + el.Name()
		}
		k = [2]string{"handle " + name, "reply " + name}
		t.names[ty] = k
	}
	return k
}

// timed runs fn and charges its duration to key unless it is nested inside
// another timed call.
func (t *timingTransport) timed(key string, fn func()) {
	if t.depth > 0 {
		fn()
		return
	}
	t.depth++
	start := time.Now()
	fn()
	d := time.Since(start)
	t.depth--
	s := t.spans[key]
	if s == nil {
		s = &span{}
		t.spans[key] = s
	}
	s.d += d
	s.n++
}

func (t *timingTransport) Bind(addr transport.Addr, h transport.Handler) {
	t.Transport.Bind(addr, func(from transport.Addr, req transport.Message) (resp transport.Message, ok bool) {
		t.timed(t.keys(req)[0], func() { resp, ok = h(from, req) })
		return resp, ok
	})
}

func (t *timingTransport) Call(from, to transport.Addr, req transport.Message, timeout time.Duration, cb func(transport.Message, error)) {
	key := t.keys(req)[1]
	t.Transport.Call(from, to, req, timeout, func(resp transport.Message, err error) {
		t.timed(key, func() { cb(resp, err) })
	})
}

func (t *timingTransport) After(owner transport.Addr, delay time.Duration, fn func()) transport.Timer {
	return t.Transport.After(owner, delay, func() { t.timed("timer", fn) })
}

func (t *timingTransport) Every(owner transport.Addr, period time.Duration, fn func()) (stop func()) {
	return t.Transport.Every(owner, period, func() { t.timed("timer", fn) })
}

// total sums the spans whose key starts with prefix ("" for all).
func (t *timingTransport) total(prefix string) (time.Duration, uint64) {
	var d time.Duration
	var n uint64
	for k, s := range t.spans {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			d += s.d
			n += s.n
		}
	}
	return d, n
}

// top returns the k categories with the most time, for the run's log.
func (t *timingTransport) top(k int) []string {
	keys := make([]string, 0, len(t.spans))
	for key := range t.spans {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return t.spans[keys[i]].d > t.spans[keys[j]].d })
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/store"
)

// storeKeys is how many keys each tcp-store client owns: few enough that
// keys repeat and the gateway's lookup cache serves them.
const storeKeys = 64

// clientRand is one client's deterministic input stream.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*tcpClients + int64(c)))
}

// lookupLoop draws a fresh uniform key per lookup, so the lookup cache
// never hits, and checks each owner against the replayed ring.
type lookupLoop struct {
	rng   *rand.Rand
	owner func(id.ID) id.ID
}

func (l *lookupLoop) prepare(*client, *atomic.Bool, *clientOut) error { return nil }

func (l *lookupLoop) run(cl *client, deadline time.Time, stop *atomic.Bool, out *clientOut) error {
	for seq := uint64(1); time.Now().Before(deadline) && !stop.Load(); seq++ {
		key := id.ID(l.rng.Uint64())
		out.attempted++
		resp, rtt, err := cl.call(core.ClientLookupReq{Seq: seq, Key: key})
		if err != nil {
			out.failed++
			continue
		}
		r, ok := resp.(core.ClientLookupResp)
		if !ok || r.Seq != seq {
			return incorrect("lookup %d: response %T %+v", seq, resp, resp)
		}
		if !r.OK {
			out.failed++
			continue
		}
		if want := l.owner(key); r.Owner.ID != want {
			return incorrect("lookup of %s resolved to %s, replayed owner %s", key, r.Owner.ID, want)
		}
		lookup := time.Duration(r.LatencyMicros) * time.Microsecond
		wait := time.Duration(r.WaitMicros) * time.Microsecond
		out.ops = append(out.ops, opRec{kind: "lookup", rtt: rtt, server: lookup + wait, lookup: lookup, wait: wait, end: time.Now()})
	}
	return nil
}

func runTCPLookup(rc runConfig) (result, error) {
	truth, err := replayRing(tcpRingSeed)
	if err != nil {
		return result{}, err
	}
	var mu sync.Mutex // Ring.OwnerAmong is not documented as concurrent-safe
	owner := func(key id.ID) id.ID {
		mu.Lock()
		defer mu.Unlock()
		return truth.Ring.OwnerAmong(key).ID
	}
	return runTCP(rc, func(c int) clientLoop {
		return &lookupLoop{rng: clientRand(rc.seed, c), owner: owner}
	}, "lookup")
}

// storeLoop owns storeKeys keys. prepare stores each once; the load window
// then mixes 3 Gets to 1 Put over them, and every Get must return the last
// acknowledged value of its key.
type storeLoop struct {
	seed    int64
	c       int
	rng     *rand.Rand
	keys    []id.ID
	acked   [][]byte   // last acknowledged value per key
	maybe   [][][]byte // values of writes that failed after being sent: they may have landed
	version int
	seq     uint64
}

func newStoreLoop(seed int64, c int) *storeLoop {
	l := &storeLoop{seed: seed, c: c, rng: clientRand(seed, c),
		keys: make([]id.ID, storeKeys), acked: make([][]byte, storeKeys), maybe: make([][][]byte, storeKeys)}
	for i := range l.keys {
		l.keys[i] = id.ID(l.rng.Uint64())
	}
	return l
}

func (l *storeLoop) prepare(cl *client, stop *atomic.Bool, out *clientOut) error {
	for k := 0; k < storeKeys && !stop.Load(); k++ {
		if err := l.put(cl, k, out); err != nil {
			return err
		}
	}
	return nil
}

func (l *storeLoop) run(cl *client, deadline time.Time, stop *atomic.Bool, out *clientOut) error {
	for time.Now().Before(deadline) && !stop.Load() {
		k, roll := l.rng.Intn(storeKeys), l.rng.Intn(4)
		var err error
		if l.acked[k] == nil || roll == 0 {
			err = l.put(cl, k, out) // a key's first use is a Put
		} else {
			err = l.get(cl, k, out)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *storeLoop) put(cl *client, k int, out *clientOut) error {
	l.seq++
	l.version++
	out.attempted++
	val := []byte(fmt.Sprintf("seed %d client %d key %d version %d", l.seed, l.c, k, l.version))
	resp, rtt, err := cl.call(store.ClientPutReq{Seq: l.seq, Key: l.keys[k], Value: val})
	if err != nil {
		out.failed++
		l.maybe[k] = append(l.maybe[k], val)
		return nil
	}
	r, ok := resp.(store.ClientPutResp)
	if !ok || r.Seq != l.seq {
		return incorrect("put %d: response %T %+v", l.seq, resp, resp)
	}
	if !r.OK {
		out.failed++
		l.maybe[k] = append(l.maybe[k], val)
		return nil
	}
	l.acked[k], l.maybe[k] = val, nil
	out.ops = append(out.ops, opRec{kind: "put", rtt: rtt, server: time.Duration(r.LatencyMicros) * time.Microsecond, end: time.Now()})
	return nil
}

func (l *storeLoop) get(cl *client, k int, out *clientOut) error {
	l.seq++
	out.attempted++
	resp, rtt, err := cl.call(store.ClientGetReq{Seq: l.seq, Key: l.keys[k]})
	if err != nil {
		out.failed++
		return nil
	}
	r, ok := resp.(store.ClientGetResp)
	if !ok || r.Seq != l.seq {
		return incorrect("get %d: response %T %+v", l.seq, resp, resp)
	}
	if r.Busy {
		out.failed++
		return nil
	}
	if !r.Found || !oneOf(r.Value, l.acked[k], l.maybe[k]) {
		return incorrect("get of key %d (client %d) returned found=%v %q, last acknowledged %q",
			k, l.c, r.Found, r.Value, l.acked[k])
	}
	out.ops = append(out.ops, opRec{kind: "get", rtt: rtt,
		server: time.Duration(r.LatencyMicros) * time.Microsecond, tried: int(r.Tried), end: time.Now()})
	return nil
}

func runTCPStore(rc runConfig) (result, error) {
	return runTCP(rc, func(c int) clientLoop { return newStoreLoop(rc.seed, c) }, "put", "get")
}

func oneOf(v, want []byte, also [][]byte) bool {
	if bytes.Equal(v, want) {
		return true
	}
	for _, a := range also {
		if bytes.Equal(v, a) {
			return true
		}
	}
	return false
}

// runTCP measures a TCP workload. Untraced, it reports the end-to-end
// metrics of one ring set up setupReps times. Traced, it measures an
// untraced ring and then a ring with -trace-buffer, and reports the traced
// ring's per-layer metrics with the tracing overhead in daemon CPU per op.
func runTCP(rc runConfig, newLoop func(c int) clientLoop, kinds ...string) (result, error) {
	reps := setupReps
	if rc.trace {
		reps = 1
	}
	plain, err := measureTCP(rc, reps, false, newLoop)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true,
		Attempted: plain.attempted + plain.prepared.attempted,
		Failed:    plain.failed + plain.prepared.failed}
	plain.logDetail(kinds...)
	if !rc.trace {
		res.Metrics = plain.endToEnd()
		return res, nil
	}
	traced, err := measureTCP(rc, 1, true, newLoop)
	if err != nil {
		return result{}, err
	}
	logf("traced ring:")
	traced.logDetail(kinds...)
	res.Attempted += traced.attempted + traced.prepared.attempted
	res.Failed += traced.failed + traced.prepared.failed
	m := traced.perLayer()
	m["trace.overhead_pct"] = metric{100 * (ratio(traced.cpuPerOp(), plain.cpuPerOp()) - 1), "%"}
	res.Metrics = m
	return res, nil
}

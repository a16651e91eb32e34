package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

// The TCP workloads split one ring between two octopusd processes on
// loopback, CA in process A, with the daemon's default protocol flags; the
// benchmark drives process B's client port from nproc (2) closed-loop
// connections. Closed loop is what a ClientConn is: it serializes calls, so
// each caller waits for its reply before sending the next.
const (
	tcpRingSeed  = 1 // the deployment is fixed; --seed draws the client inputs
	ringNodes    = 32
	tcpClients   = 2
	poolTarget   = 16 // octopusd's -pool-target default: the readiness bar
	setupReps    = 3  // set-ups per run; setup_s is their median
	idleWindow   = 3 * time.Second
	readyTimeout = 60 * time.Second
	callTimeout  = 30 * time.Second
	subWindows   = 5       // throughput and CPU per op are medians over these
	traceSpans   = 1 << 16 // -trace-buffer of a traced run
)

// tcpRing is one running two-process deployment.
type tcpRing struct {
	a, b     *daemon
	clientEP string
	setup    time.Duration
}

// startRing launches both daemons and returns once every gateway's relay
// pool has reached the pool target on /metrics. The time until then is one
// set-up sample.
func startRing(rc runConfig, ringSeed int64, tag string, traced bool) (*tcpRing, error) {
	eps, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(rc.workdir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := ringConfig{Seed: ringSeed, CA: eps[0]}
	for i := 0; i < ringNodes; i++ {
		cfg.Nodes = append(cfg.Nodes, eps[i%2])
	}
	path, err := writeRingConfig(dir, cfg)
	if err != nil {
		return nil, err
	}
	args := func(listen, metrics string) []string {
		a := []string{"-config", path, "-listen", listen, "-metrics-listen", metrics}
		if traced {
			a = append(a, "-trace-buffer", strconv.Itoa(traceSpans))
		}
		return a
	}
	// Process A (the CA's) comes up first and B once A accepts
	// connections, the order an operator brings up a deployment. Started
	// at the same instant, the two would race: whichever runs its first
	// relay walks before the other listens waits out an RPC timeout, so
	// set-up time would flip between two modes run to run.
	t0 := time.Now()
	a, err := startDaemon(rc.octopusd, "A", filepath.Join(dir, "a.log"), eps[2], args(eps[0], eps[2])...)
	if err != nil {
		return nil, err
	}
	if err := awaitListener(a, eps[0]); err != nil {
		a.stop()
		return nil, err
	}
	b, err := startDaemon(rc.octopusd, "B", filepath.Join(dir, "b.log"), eps[3], args(eps[1], eps[3])...)
	if err != nil {
		a.stop()
		return nil, err
	}
	r := &tcpRing{a: a, b: b, clientEP: eps[1]}
	if err := r.waitReady(); err != nil {
		r.stop()
		return nil, err
	}
	r.setup = time.Since(t0)
	return r, nil
}

// awaitListener waits until a daemon accepts TCP connections on ep.
func awaitListener(d *daemon, ep string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		c, err := net.DialTimeout("tcp", ep, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if !d.alive() || time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never listened on %s\n%s", d.name, ep, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *tcpRing) daemons() []*daemon { return []*daemon{r.a, r.b} }

func (r *tcpRing) stop() {
	for _, d := range r.daemons() {
		d.stop()
	}
}

func (r *tcpRing) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		ready := true
		for _, d := range r.daemons() {
			if !d.alive() {
				return fmt.Errorf("daemon %s exited during set-up\n%s", d.name, d.logTail())
			}
			s, err := d.scrape()
			if err != nil {
				ready = false // not listening yet
				continue
			}
			gw, ok := s.gatewayNode()
			if !ok || s.sum("octopus_pool_pairs", `node="`+gw+`"`) < poolTarget {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring not ready after %v\n%s\n%s", readyTimeout, r.a.logTail(), r.b.logTail())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *tcpRing) cpu() (time.Duration, error) {
	var t time.Duration
	for _, d := range r.daemons() {
		c, err := procCPU(d.pid())
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

func (r *tcpRing) peakRSSMB() (float64, error) {
	var t float64
	for _, d := range r.daemons() {
		m, err := peakRSSMB(d.pid())
		if err != nil {
			return 0, err
		}
		t += m
	}
	return t, nil
}

func (r *tcpRing) scrape() ([]scrape, error) {
	var out []scrape
	for _, d := range r.daemons() {
		s, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// replayRing derives a deployment's ground truth the way every octopusd
// process does: the same seed and draw order on the simulator yield the
// same ring identifiers, whose owner of a key is the expected answer.
func replayRing(seed int64) (*core.Network, error) {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, simnet.ConstantLatency{D: time.Millisecond}, ringNodes+1)
	return core.BuildNetwork(net, ringNodes, core.DefaultConfig())
}

// opRec is one successful client operation.
type opRec struct {
	kind   string        // "lookup", "put" or "get"
	rtt    time.Duration // client-observed round trip
	server time.Duration // time the daemon reports spending on it
	lookup time.Duration // the anonymous lookup alone (lookups only)
	wait   time.Duration // lookup-service queueing (lookups only)
	tried  int           // replicas contacted (gets only)
	end    time.Time
}

// clientOut is what one closed-loop client reports.
type clientOut struct {
	ops               []opRec
	attempted, failed int
}

// client is one closed-loop connection to the gateway, redialed after a
// failed call (a failed call poisons a ClientConn).
type client struct {
	ep   string
	cc   *nettransport.ClientConn
	ends []time.Time // when each call returned
}

func (c *client) call(req transport.Message) (transport.Message, time.Duration, error) {
	if c.cc == nil {
		cc, err := nettransport.DialClient(c.ep, 5*time.Second)
		if err != nil {
			c.ends = append(c.ends, time.Now())
			return nil, 0, err
		}
		c.cc = cc
	}
	t := time.Now()
	resp, err := c.cc.Call(req, callTimeout)
	end := time.Now()
	rtt := end.Sub(t)
	c.ends = append(c.ends, end)
	if err != nil {
		c.cc.Close()
		c.cc = nil
	}
	return resp, rtt, err
}

func (c *client) close() {
	if c.cc != nil {
		c.cc.Close()
	}
}

// clientLoop is one closed-loop client of a workload, fresh for each ring.
// Both methods return an error on a wrong answer and stop early once stop
// is set.
type clientLoop interface {
	// prepare runs before the idle window and is not timed.
	prepare(cl *client, stop *atomic.Bool, out *clientOut) error
	// run drives the load window until the deadline.
	run(cl *client, deadline time.Time, stop *atomic.Bool, out *clientOut) error
}

// runClients runs one call per client concurrently and waits for all; the
// first wrong answer stops the others.
func runClients(cls []*client, fn func(i int, cl *client, stop *atomic.Bool, out *clientOut) error) ([]clientOut, error) {
	outs := make([]clientOut, len(cls))
	errs := make([]error, len(cls))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			if errs[i] = fn(i, cl, &stop, &outs[i]); errs[i] != nil {
				stop.Store(true)
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// tcpRun is one measured window on one ring.
type tcpRun struct {
	setup     time.Duration
	prepared  clientOut // the untimed prepare step (no latencies kept)
	ops       []opRec
	attempted int // in the load window
	failed    int
	elapsed   time.Duration
	// Per sub-window of the load window: its length, the successful ops
	// and the attempts that ended in it, and the daemons' CPU.
	sub                 time.Duration
	subOps, subAttempts []int
	subCPU              []time.Duration
	idleCPU             time.Duration // daemons' CPU during the idle window
	rssMB               float64
	before, after       []scrape
	hops                []float64 // relay hop span durations in ms (traced runs)
}

// startRings starts a ring reps times, keeping the last, and returns it
// with the median set-up time.
func startRings(rc runConfig, reps int, traced bool) (*tcpRing, time.Duration, error) {
	var setups []float64
	for i := 0; ; i++ {
		r, err := startRing(rc, tcpRingSeed, fmt.Sprintf("ring%d-traced%v", i, traced), traced)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, r.setup.Seconds())
		if i == reps-1 {
			return r, time.Duration(median(setups) * float64(time.Second)), nil
		}
		r.stop()
	}
}

// measureTCP starts a ring, runs the clients' prepare step, measures an idle
// window and then a load window of rc.seconds, and stops the ring.
func measureTCP(rc runConfig, reps int, traced bool, newLoop func(c int) clientLoop) (tcpRun, error) {
	var run tcpRun
	r, setup, err := startRings(rc, reps, traced)
	if err != nil {
		return run, err
	}
	defer r.stop()
	run.setup = setup

	loops := make([]clientLoop, tcpClients)
	cls := make([]*client, tcpClients)
	for i := range loops {
		loops[i] = newLoop(i)
		cls[i] = &client{ep: r.clientEP}
		defer cls[i].close()
	}
	prep, err := runClients(cls, func(i int, cl *client, stop *atomic.Bool, out *clientOut) error {
		return loops[i].prepare(cl, stop, out)
	})
	if err != nil {
		return run, err
	}
	for _, o := range prep {
		run.prepared.attempted += o.attempted
		run.prepared.failed += o.failed
	}

	c0, err := r.cpu()
	if err != nil {
		return run, err
	}
	time.Sleep(idleWindow)
	c1, err := r.cpu()
	if err != nil {
		return run, err
	}
	run.idleCPU = c1 - c0

	if run.before, err = r.scrape(); err != nil {
		return run, err
	}
	var spansBefore []int
	if traced {
		for _, d := range r.daemons() {
			sp, _, err := d.spans()
			if err != nil {
				return run, err
			}
			spansBefore = append(spansBefore, len(sp))
		}
	}
	if err := run.loadWindow(r, cls, loops, rc.seconds); err != nil {
		return run, err
	}
	if run.after, err = r.scrape(); err != nil {
		return run, err
	}
	if run.rssMB, err = r.peakRSSMB(); err != nil {
		return run, err
	}
	if traced {
		for i, d := range r.daemons() {
			sp, dropped, err := d.spans()
			if err != nil {
				return run, err
			}
			if dropped == 0 {
				sp = sp[spansBefore[i]:]
			}
			for _, s := range sp {
				if s.Name == "relay.forward" || s.Name == "relay.exit" {
					run.hops = append(run.hops, ms(s.End-s.Start))
				}
			}
		}
	}
	return run, nil
}

// loadWindow drives the clients for length, sampling the daemons' CPU at
// the boundaries of subWindows equal sub-windows.
func (run *tcpRun) loadWindow(r *tcpRing, cls []*client, loops []clientLoop, length time.Duration) error {
	for _, cl := range cls {
		cl.ends = nil
	}
	start := time.Now()
	run.sub = length / subWindows
	marks := make([]time.Duration, subWindows+1)
	var markErr error
	if marks[0], markErr = r.cpu(); markErr != nil {
		return markErr
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 1; i <= subWindows && markErr == nil; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * run.sub)))
			marks[i], markErr = r.cpu()
		}
	}()
	outs, err := runClients(cls, func(i int, cl *client, stop *atomic.Bool, out *clientOut) error {
		return loops[i].run(cl, start.Add(length), stop, out)
	})
	<-sampled
	if err != nil {
		return err
	}
	if markErr != nil {
		return markErr
	}
	run.elapsed = time.Since(start)
	for _, o := range outs {
		run.ops = append(run.ops, o.ops...)
		run.attempted += o.attempted
		run.failed += o.failed
	}
	run.subOps = make([]int, subWindows)
	run.subAttempts = make([]int, subWindows)
	run.subCPU = make([]time.Duration, subWindows)
	slot := func(t time.Time) int { return int(t.Sub(start) / run.sub) }
	for _, op := range run.ops {
		if i := slot(op.end); i < subWindows {
			run.subOps[i]++
		}
	}
	for _, cl := range cls {
		for _, t := range cl.ends {
			if i := slot(t); i < subWindows {
				run.subAttempts[i]++
			}
		}
	}
	for i := range run.subCPU {
		run.subCPU[i] = marks[i+1] - marks[i]
	}
	return nil
}

// cpuPerOp is the daemons' CPU per attempted op in ms, the median over the
// sub-windows, so that one stretch of a slower host does not decide it.
func (run tcpRun) cpuPerOp() float64 {
	var xs []float64
	for i := range run.subCPU {
		xs = append(xs, ratio(ms(run.subCPU[i]), float64(run.subAttempts[i])))
	}
	return median(xs)
}

// latencies returns the round trips of the successful ops of one kind
// ("" for all), in ms.
func (run tcpRun) latencies(kind string) []float64 {
	var xs []float64
	for _, op := range run.ops {
		if kind == "" || op.kind == kind {
			xs = append(xs, ms(op.rtt))
		}
	}
	return xs
}

// endToEnd computes the gated metrics of a TCP run. Throughput and CPU per
// op are medians over the sub-windows.
func (run tcpRun) endToEnd() map[string]metric {
	all := run.latencies("")
	var rates []float64
	for _, n := range run.subOps {
		rates = append(rates, float64(n)/run.sub.Seconds())
	}
	return map[string]metric{
		"setup_s":       {run.setup.Seconds(), "s"},
		"ops_per_s":     {median(rates), "1/s"},
		"op_p50_ms":     {quantile(all, 0.50), "ms"},
		"op_p95_ms":     {quantile(all, 0.95), "ms"},
		"cpu_ms_per_op": {run.cpuPerOp(), "ms"},
		"peak_rss_mb":   {run.rssMB, "MB"},
	}
}

// logDetail prints the per-operation-kind figures that the gated set folds
// together, with their sample counts.
func (run tcpRun) logDetail(kinds ...string) {
	for _, k := range kinds {
		xs := run.latencies(k)
		logf("  %-6s n=%-5d p50 %8.2f ms  p95 %8.2f ms", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.95))
	}
	logf("  op_fail_ratio %.4f (%d of %d), idle daemon CPU %.1f ms/s",
		ratio(float64(run.failed), float64(run.attempted)), run.failed, run.attempted,
		ratio(ms(run.idleCPU), idleWindow.Seconds()))
}

// perLayer computes the layer metrics one TCP run can see from outside
// the daemons: /metrics deltas over the load window, client-side timing,
// and the relay spans of /trace.
func (run tcpRun) perLayer() map[string]metric {
	m := counterLayers(run.before, run.after, float64(run.attempted), run.elapsed.Seconds())
	var overhead []float64
	var waitSum, lookupSum, tried, puts, gets float64
	for _, op := range run.ops {
		overhead = append(overhead, 100*float64(op.rtt-op.server)/float64(op.rtt))
		switch op.kind {
		case "lookup":
			waitSum += float64(op.wait)
			lookupSum += float64(op.lookup)
		case "put":
			puts++
		case "get":
			gets++
			tried += float64(op.tried)
		}
	}
	m["service.wait_pct"] = metric{100 * ratio(waitSum, waitSum+lookupSum), "%"}
	m["client.overhead_pct"] = metric{median(overhead), "%"}
	m["store.replica_batches_per_put"] = metric{ratio(sumDelta(run.before, run.after, "octopus_store_replica_batches_total"), puts), "count"}
	m["store.tried_per_get"] = metric{ratio(tried, gets), "count"}
	m["daemon.idle_cpu_ms_per_s"] = metric{ms(run.idleCPU) / idleWindow.Seconds(), "ms/s"}
	m["relay.hop_mean_ms"] = metric{mean(run.hops), "ms"}
	return m
}

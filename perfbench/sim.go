package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/king"
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/simnet"
	"github.com/octopus-dht/octopus/internal/transport"
)

// The sim-ring workload is the serving experiment of experiments.RunLoad,
// built here from public functions so that the benchmark can read the
// simulator's event count and wrap the transport: a 1000-node finger-tier
// ring in which four LookupService nodes (α = 3, pool 16, cache off)
// receive open-loop Poisson arrivals of uniform keys. Its "op" is one
// simulated second, the unit of progress a researcher waits for.
const (
	simNodes   = 1000
	simServing = 4
	simRate    = 8.0 // lookups per simulated second, over all serving nodes
	simClients = 16
	simChunk   = 10 * time.Second // virtual span of one latency sample
	simReadyBy = 2 * time.Minute  // virtual time by which the pools must stock
	// simMinCycles keeps at least six 30 s units and eighteen chunks in
	// the medians and quantiles, however fast the host is.
	simMinCycles = 3
)

func simConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.EstimatedSize = simNodes
	cfg.LookupParallelism = 3
	cfg.PairPoolTarget = 16
	cfg.LookupCacheSize = 0
	return cfg
}

// simCycle is the period after which every periodic protocol task has run
// a whole number of times. The maintenance load is bursty (one surveillance
// round costs more wall time than the rest of its minute), so the measured
// phase always covers whole cycles.
func simCycle(cfg core.Config) time.Duration {
	gcd := func(a, b time.Duration) time.Duration {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	c := time.Duration(1)
	for _, p := range []time.Duration{cfg.Chord.StabilizeEvery, cfg.Chord.FixFingersEvery,
		cfg.WalkEvery, cfg.SurveilEvery} {
		if p > 0 {
			c = c / gcd(c, p) * p
		}
	}
	return c
}

// simRing is one built ring, ready for arrivals.
type simRing struct {
	sim    *simnet.Simulator
	net    *simnet.Network
	nw     *core.Network
	timing *timingTransport // nil when untraced
	tracer *obs.Tracer      // nil when untraced
	setup  time.Duration    // wall time from build to stocked pools
}

// buildSimRing builds the ring and runs it until every serving node's relay
// pool holds the pool target, checked once per simulated second.
func buildSimRing(seed int64, traced bool) (*simRing, error) {
	start := time.Now()
	r := &simRing{sim: simnet.New(seed)}
	r.net = simnet.NewNetwork(r.sim, king.New(seed), simNodes+1)
	var tr transport.Transport = r.net
	if traced {
		r.timing = newTimingTransport(r.net, r.net.Size())
		tr = r.timing
	}
	cfg := simConfig()
	nw, err := core.BuildNetwork(tr, simNodes, cfg)
	if err != nil {
		return nil, err
	}
	r.nw = nw
	if traced {
		// Relay hop spans in virtual time; recording draws no randomness.
		r.tracer = obs.NewTracer(1<<14, obs.RedactAnonymous)
		for i := 0; i < simNodes; i++ {
			nw.Node(simnet.Address(i)).SetTracer(r.tracer)
		}
	}
	for {
		stocked := true
		for i := 0; i < simServing; i++ {
			if nw.Node(simnet.Address(i)).PoolSize() < cfg.PairPoolTarget {
				stocked = false
			}
		}
		if stocked {
			break
		}
		if r.sim.Now() >= simReadyBy {
			return nil, fmt.Errorf("sim-ring: relay pools not stocked after %v simulated", simReadyBy)
		}
		r.sim.Run(r.sim.Now() + time.Second)
	}
	r.setup = time.Since(start)
	return r, nil
}

// simPhase is the outcome of one measured phase.
type simPhase struct {
	virtual   time.Duration
	wall      time.Duration
	cpu       time.Duration
	chunkMS   []float64 // wall ms per simulated second, one per simChunk
	unitSpeed []float64 // simulated seconds per wall second, one per align-long unit
	unitCPU   []float64 // CPU ms per simulated second, one per align-long unit
	events    uint64
	resolved  int
	failed    int
	latencyMS []float64 // virtual lookup latency of completed lookups
	waitMS    []float64 // virtual service queueing of completed lookups
	before    scrape
	after     scrape
	gcCPU     float64 // seconds
	allocB    float64
}

// fingerprint summarizes the seeded outcome; a traced replay of the same
// phase must reproduce it exactly.
func (p simPhase) fingerprint() string {
	return fmt.Sprintf("events=%d resolved=%d failed=%d p50=%.6f p95=%.6f max=%.6f",
		p.events, p.resolved, p.failed,
		quantile(p.latencyMS, 0.5), quantile(p.latencyMS, 0.95), quantile(p.latencyMS, 1))
}

// snapshot renders every node's and the network's counters the way
// octopusd's /metrics would, so both kinds of ring share the counter code.
func (r *simRing) snapshot() (scrape, error) {
	c := obs.NewCollector()
	c.Register(r.net)
	for i := 0; i < simNodes; i++ {
		c.Register(r.nw.Node(simnet.Address(i)))
	}
	var b bytes.Buffer
	if err := obs.WriteText(&b, c.Snapshot()); err != nil {
		return nil, err
	}
	return parseScrape(b.String())
}

func readRuntime() (gcCPU, alloc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// measure starts arrivals and runs whole cycles until at least minWall has
// passed and at least minVirtual and simMinCycles cycles have been
// simulated. Every completed
// lookup's owner is checked against the ring's ground truth.
func (r *simRing) measure(seed int64, minWall, minVirtual time.Duration) (simPhase, error) {
	var p simPhase
	services := make([]*core.LookupService, simServing)
	for i := range services {
		services[i] = core.NewLookupService(r.nw.Node(simnet.Address(i)), core.ServiceConfig{
			Workers: 16, Queue: 64, PerClient: 64,
		})
	}
	var wrong error
	arrivals := rand.New(rand.NewSource(seed))
	var schedule func()
	schedule = func() {
		dt := time.Duration(arrivals.ExpFloat64() / simRate * float64(time.Second))
		r.sim.After(dt, func() {
			svc := services[arrivals.Intn(len(services))]
			client := fmt.Sprintf("c%02d", arrivals.Intn(simClients))
			key := id.ID(arrivals.Uint64())
			svc.Enqueue(client, key, func(sr core.ServiceResult) {
				p.resolved++
				if sr.Err != nil {
					p.failed++
					return
				}
				if want := r.nw.Ring.Owner(key); sr.Owner.ID != want.ID && wrong == nil {
					wrong = incorrect("sim-ring lookup of %s resolved to %s, ring owner %s", key, sr.Owner.ID, want.ID)
				}
				p.latencyMS = append(p.latencyMS, ms(sr.Stats.Latency()))
				p.waitMS = append(p.waitMS, ms(sr.Wait))
			})
			schedule()
		})
	}
	schedule()

	// Start on a multiple of the shortest slow period, so that the
	// chunks hold the same mix of periodic bursts whatever the seed.
	cycle := simCycle(simConfig())
	align := simConfig().Chord.FixFingersEvery
	r.sim.Run((r.sim.Now()/align + 1) * align)
	var err error
	if p.before, err = r.snapshot(); err != nil {
		return p, err
	}
	runtime.GC()
	gc0, alloc0 := readRuntime()
	cpu0, fired0, v0 := selfCPU(), r.sim.Fired(), r.sim.Now()
	start := time.Now()
	var walls, cpus []time.Duration // per chunk
	for {
		for c := time.Duration(0); c < cycle; c += simChunk {
			t, c0 := time.Now(), selfCPU()
			r.sim.Run(r.sim.Now() + simChunk)
			walls = append(walls, time.Since(t))
			cpus = append(cpus, selfCPU()-c0)
		}
		if time.Since(start) >= minWall && r.sim.Now()-v0 >= max(minVirtual, simMinCycles*cycle) {
			break
		}
	}
	// Speed and CPU cost are medians over align-long units, which hold the
	// same work, so that one stretch of a slower host does not decide them.
	per := int(align / simChunk)
	var wall, cpu time.Duration
	for i := range walls {
		p.chunkMS = append(p.chunkMS, ms(walls[i])/simChunk.Seconds())
		wall, cpu = wall+walls[i], cpu+cpus[i]
		if (i+1)%per == 0 {
			p.unitSpeed = append(p.unitSpeed, align.Seconds()/wall.Seconds())
			p.unitCPU = append(p.unitCPU, ms(cpu)/align.Seconds())
			wall, cpu = 0, 0
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0
	p.events = r.sim.Fired() - fired0
	p.virtual = r.sim.Now() - v0
	gc1, alloc1 := readRuntime()
	p.gcCPU, p.allocB = gc1-gc0, alloc1-alloc0
	if p.after, err = r.snapshot(); err != nil {
		return p, err
	}
	return p, wrong
}

func runSimRing(rc runConfig) (result, error) {
	var res result
	var setups []float64
	reps := setupReps
	if rc.trace {
		reps = 1 // the traced run reports no set-up time
	}
	var ring *simRing
	for i := 0; i < reps; i++ {
		ring = nil
		runtime.GC() // the previous ring's memory is not this one's
		var err error
		if ring, err = buildSimRing(rc.seed, false); err != nil {
			return res, err
		}
		setups = append(setups, ring.setup.Seconds())
	}
	p, err := ring.measure(rc.seed, rc.seconds, 0)
	if err != nil {
		return res, err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return res, err
	}
	ring = nil // let the traced replay's collection reclaim it
	res = result{Correct: true, Attempted: p.resolved, Failed: p.failed}
	virtualS := p.virtual.Seconds()
	logf("sim-ring: %.0f simulated s in %.2f wall s (sim_speed_x %.3f), %d events, %d lookups resolved, %d failed",
		virtualS, p.wall.Seconds(), virtualS/p.wall.Seconds(), p.events, p.resolved, p.failed)
	logf("  op_fail_ratio %.4f; virtual lookup latency p50 %.0f ms p95 %.0f ms (n=%d; not a gated metric)",
		ratio(float64(p.failed), float64(p.resolved)), quantile(p.latencyMS, 0.5), quantile(p.latencyMS, 0.95), len(p.latencyMS))
	if !rc.trace {
		res.Metrics = map[string]metric{
			"setup_s":       {median(setups), "s"},
			"ops_per_s":     {median(p.unitSpeed), "1/s"},
			"op_p50_ms":     {quantile(p.chunkMS, 0.50), "ms"},
			"op_p95_ms":     {quantile(p.chunkMS, 0.95), "ms"},
			"cpu_ms_per_op": {median(p.unitCPU), "ms"},
			"peak_rss_mb":   {rss, "MB"},
		}
		return res, nil
	}

	// The traced replay: same seed, same arrivals, same virtual span.
	runtime.GC()
	traced, err := buildSimRing(rc.seed, true)
	if err != nil {
		return res, err
	}
	tp, err := traced.measure(rc.seed, 0, p.virtual)
	if err != nil {
		return res, err
	}
	if tp.virtual != p.virtual || tp.fingerprint() != p.fingerprint() {
		return res, incorrect("traced sim-ring run diverged from the untraced one:\n  untraced %s over %v\n  traced   %s over %v",
			p.fingerprint(), p.virtual, tp.fingerprint(), tp.virtual)
	}
	logf("  fingerprint %s (traced replay identical)", p.fingerprint())
	res.Metrics = simLayers(p, tp, traced)
	return res, nil
}

// simLayers computes the per-layer metrics of a sim-ring run: the time
// split from the traced replay, and counts and runtime costs from the
// untraced phase, which the wrapping does not perturb.
func simLayers(p, tp simPhase, traced *simRing) map[string]metric {
	t := traced.timing
	wall := tp.wall.Seconds()
	pct := func(prefix string) float64 {
		d, _ := t.total(prefix)
		return 100 * d.Seconds() / wall
	}
	count := func(prefix string) float64 {
		_, n := t.total(prefix)
		return float64(n)
	}
	inside, _ := t.total("")
	virtualS := p.virtual.Seconds()
	var hops []float64
	for _, s := range traced.tracer.Spans() {
		if s.Name == "relay.forward" || s.Name == "relay.exit" {
			hops = append(hops, ms(s.End-s.Start))
		}
	}
	m := counterLayers([]scrape{p.before}, []scrape{p.after}, virtualS, virtualS)
	for k, v := range map[string]metric{
		"simnet.events_per_op":    {float64(p.events) / virtualS, "count"},
		"simnet.events_per_s":     {float64(p.events) / p.wall.Seconds(), "1/s"},
		"simnet.self_pct":         {100 * (wall - inside.Seconds()) / wall, "%"},
		"chord.handle_pct":        {pct("handle chord."), "%"},
		"chord.reply_pct":         {pct("reply chord."), "%"},
		"chord.msgs_per_op":       {count("handle chord.") / virtualS, "count"},
		"core.handle_pct":         {pct("handle core."), "%"},
		"core.reply_pct":          {pct("reply core."), "%"},
		"core.msgs_per_op":        {count("handle core.") / virtualS, "count"},
		"timers.self_pct":         {pct("timer"), "%"},
		"runtime.gc_cpu_pct":      {100 * p.gcCPU / p.cpu.Seconds(), "%"},
		"runtime.alloc_mb_per_op": {p.allocB / (1 << 20) / virtualS, "MB"},
		"service.wait_pct":        {100 * ratio(sum(p.waitMS), sum(p.latencyMS)+sum(p.waitMS)), "%"},
		"relay.hop_mean_ms":       {mean(hops), "ms"},
		"trace.overhead_pct":      {100 * (wall/p.wall.Seconds() - 1), "%"},
	} {
		m[k] = v
	}
	logf("  traced replay %.2f wall s (untraced %.2f); time split of the traced run:", wall, p.wall.Seconds())
	for _, k := range t.top(8) {
		s := t.spans[k]
		logf("    %-40s %7.2f s %5.1f%% %10d calls", k, s.d.Seconds(), 100*s.d.Seconds()/wall, s.n)
	}
	logf("    %-40s %7.2f s %5.1f%%", "outside wrapped callbacks", wall-inside.Seconds(), 100*(wall-inside.Seconds())/wall)
	return m
}

// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload per invocation, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output. Human-readable detail goes to standard
// error. perfbench/run.py builds this program and the octopusd daemon and
// invokes it; see perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	octopusd string // path to the daemon binary (TCP workloads)
	workdir  string // scratch space for ring configs and daemon logs
}

// incorrect reports a wrong answer; like every error, it ends the run
// without a result.
func incorrect(format string, args ...any) error {
	return fmt.Errorf("correctness gate: "+format, args...)
}

var workloads = map[string]func(runConfig) (result, error){
	"sim-ring":   runSimRing,
	"tcp-lookup": runTCPLookup,
	"tcp-store":  runTCPStore,
}

// runDeadline bounds a whole invocation, set-up included.
const runDeadline = 170 * time.Second

func main() {
	var (
		workload string
		seed     int64
		seconds  int
		trace    int
		rc       runConfig
	)
	flag.StringVar(&workload, "workload", "", "sim-ring, tcp-lookup or tcp-store")
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in wall seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&rc.octopusd, "octopusd", "", "octopusd binary (TCP workloads)")
	flag.StringVar(&rc.workdir, "workdir", "", "directory for ring configs and daemon logs")
	flag.Parse()
	run, ok := workloads[workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || rc.workdir == "" {
		flag.Usage()
		os.Exit(2)
	}
	rc.seed, rc.seconds, rc.trace = seed, time.Duration(seconds)*time.Second, trace == 1
	endToEnd, perLayer, err := loadDeclared("BENCHMARK.json") // run from the repository root
	if err != nil {
		fatal(err)
	}

	// Every exit path stops the daemons: normal return, a correctness
	// failure, the run deadline, and SIGINT/SIGTERM from the caller.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fatal(fmt.Errorf("received %v", s))
		case <-time.After(runDeadline):
			fatal(fmt.Errorf("run exceeded %v", runDeadline))
		}
	}()

	res, err := run(rc)
	if err == nil {
		if rc.trace {
			err = perLayer.complete(res.Metrics, true)
		} else {
			err = endToEnd.complete(res.Metrics, false)
		}
	}
	if err != nil {
		fatal(err)
	}
	stopAllDaemons()
	logMetrics(workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal stops every daemon and exits non-zero without printing a result.
func fatal(err error) {
	stopAllDaemons()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func logMetrics(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	logf("%s: attempted %d, failed %d", workload, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		logf("  %-32s %14.4f %s", n, m.Value, m.Unit)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

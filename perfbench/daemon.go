package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/octopus-dht/octopus/internal/obs"
)

// daemon is one octopusd process the benchmark started.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	metrics string // http://host:port of -metrics-listen
	exited  chan struct{}
	once    sync.Once
}

// live holds every daemon not yet stopped, so that each exit path —
// including a signal or the run deadline on another goroutine — can stop
// them all.
var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

func startDaemon(bin, name, logPath, metricsEP string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, killed with the benchmark even if it dies hard.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, metrics: "http://" + metricsEP, exited: make(chan struct{})}
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live[d] = true
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the daemon's process group and waits until it is reaped, so
// its ports are free before the next ring starts.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // ESRCH: already gone
		<-d.exited
		liveMu.Lock()
		delete(live, d)
		liveMu.Unlock()
	})
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// logTail returns the last lines of the daemon's log for error reports.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return d.name + " log:\n  " + strings.Join(lines, "\n  ")
}

func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePorts reserves k distinct kernel-assigned loopback endpoints. The
// listeners close before the daemons bind them; the kernel does not hand
// out a just-released ephemeral port again this quickly.
func freePorts(k int) ([]string, error) {
	eps := make([]string, k)
	lns := make([]net.Listener, k)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range eps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns[i] = ln
		eps[i] = ln.Addr().String()
	}
	return eps, nil
}

var httpc = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := httpc.Get(d.metrics + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s", d.metrics, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape is one parsed /metrics exposition: every series by its full
// name{labels} text.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	s, err := parseScrape(string(b))
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", d.metrics, err)
	}
	return s, nil
}

// parseScrape reads the Prometheus text exposition octopusd serves.
func parseScrape(text string) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// seriesName splits "name{labels}" into its parts.
func seriesName(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// sum adds every series of one metric whose labels contain all of match.
func (s scrape) sum(name string, match ...string) float64 {
	var t float64
	for series, v := range s {
		n, labels := seriesName(series)
		if n != name {
			continue
		}
		ok := true
		for _, m := range match {
			if !strings.Contains(labels, m) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// gatewayNode returns the node label value of the process's client
// gateway: the node whose lookup service exports its gauges.
func (s scrape) gatewayNode() (string, bool) {
	for series := range s {
		n, labels := seriesName(series)
		if n == "octopus_service_active_lookups" && strings.HasPrefix(labels, `node="`) {
			return strings.TrimSuffix(strings.TrimPrefix(labels, `node="`), `"`), true
		}
	}
	return "", false
}

// spans returns the daemon's buffered trace spans and the overwrite count.
func (d *daemon) spans() ([]obs.Span, uint64, error) {
	b, err := d.get("/trace")
	if err != nil {
		return nil, 0, err
	}
	var out struct {
		Dropped uint64     `json:"dropped"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, 0, fmt.Errorf("%s/trace: %w", d.metrics, err)
	}
	return out.Spans, out.Dropped, nil
}

// ringConfig mirrors octopusd's -config file.
type ringConfig struct {
	Seed  int64    `json:"seed"`
	Nodes []string `json:"nodes"`
	CA    string   `json:"ca"`
}

func writeRingConfig(dir string, rc ringConfig) (string, error) {
	b, err := json.Marshal(rc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "ring.json")
	return path, os.WriteFile(path, b, 0o644)
}

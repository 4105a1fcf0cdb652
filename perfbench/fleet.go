package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lamb/internal/engine"
	"lamb/internal/router"
)

// proc is one child `lamb serve` or `lamb route` process.
type proc struct {
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:PORT
	done chan struct{}
	once sync.Once
}

// live holds every child not yet stopped, so a signal can stop them all.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

// readyTimeout bounds how long a child may take to announce its address
// and pass its readiness check.
const readyTimeout = 30 * time.Second

// addrWatcher passes a child's stderr through to log and reports the
// address of its first "listening on" line. exec.Cmd calls Write from a
// single goroutine and Wait waits for it, so nothing is lost or written
// after the child is reaped.
type addrWatcher struct {
	log  io.Writer
	seen []byte
	addr chan string // buffered 1; nil once the address was sent
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	_, _ = a.log.Write(p) // a lost log line must not stall the child
	if a.addr != nil {
		a.seen = append(a.seen, p...)
		if m := listenRE.FindSubmatch(a.seen); m != nil {
			a.addr <- string(m[1])
			a.addr, a.seen = nil, nil
		}
	}
	return len(p), nil
}

// startProc launches lamb with args and waits for its "listening on"
// line, which carries the ephemeral port it bound.
func startProc(lambBin string, log io.Writer, args ...string) (*proc, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(lambBin, args...)
	// Own process group, and SIGKILL if this process dies first, so no
	// orphan keeps a port or a core busy into the next run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = log
	cmd.Stderr = &addrWatcher{log: log, addr: addr}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lamb %s: %w", args[0], err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child is expected to be a signal
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("lamb %s exited before listening", args[0])
	case <-time.After(readyTimeout):
		p.stop()
		return nil, fmt.Errorf("lamb %s did not announce its address within %v", args[0], readyTimeout)
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 5s, and returns once
// the process has exited.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		live.mu.Lock()
		delete(live.procs, p)
		live.mu.Unlock()
	})
}

// stopAll stops every live child.
func stopAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleet is one booted set of serves and, optionally, the router in
// front of them.
type fleet struct {
	serves []*proc
	route  *proc
}

// front is the URL clients send traffic to.
func (f *fleet) front() string {
	if f.route != nil {
		return f.route.url
	}
	return f.serves[0].url
}

// serveURLs lists the serves' base URLs.
func (f *fleet) serveURLs() []string {
	urls := make([]string, len(f.serves))
	for i, s := range f.serves {
		urls[i] = s.url
	}
	return urls
}

func (f *fleet) stop() {
	if f.route != nil {
		f.route.stop()
	}
	for _, s := range f.serves {
		s.stop()
	}
}

// peakRSSMB sums VmHWM over the serving processes.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum float64
	procs := append([]*proc{f.route}, f.serves...)
	for _, p := range procs {
		if p == nil {
			continue
		}
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// profilePath is the kernel-profile store profiled workloads serve
// with, relative to the repository root.
const profilePath = "testdata/profile-ci.json"

// bootFleet starts the fleet spec describes and returns once every
// process is ready: each serve's /healthz answers 200 and, with a
// router, its /healthz answers 200 and it reports every backend up.
func bootFleet(ctx context.Context, lambBin string, spec fleetSpec, log io.Writer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < spec.Serves; i++ {
		args := []string{"serve", "-addr", "127.0.0.1:0", "-backend", spec.Backend}
		if spec.Profile {
			args = append(args, "-profile", profilePath)
		}
		p, err := startProc(lambBin, log, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.serves = append(f.serves, p)
	}
	for _, s := range f.serves {
		if err := waitReady(ctx, s.url, nil); err != nil {
			f.stop()
			return nil, err
		}
	}
	if spec.Route {
		p, err := startProc(lambBin, log, "route", "-addr", "127.0.0.1:0",
			"-backends", strings.Join(f.serveURLs(), ","),
			"-probe-every", "200ms", "-merge-every", "1s")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.route = p
		allUp := func() bool {
			var st router.Stats
			return getJSON(ctx, p.url+"/api/v1/stats", &st) == nil && st.Up == spec.Serves
		}
		if err := waitReady(ctx, p.url, allUp); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls url's /healthz until it answers 200 and extra (if
// any) holds.
func waitReady(ctx context.Context, url string, extra func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := probeClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (extra == nil || extra()) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within %v", url, readyTimeout)
}

// getJSON GETs url and decodes its 200 body into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveStats is the serve /api/v1/stats shape: the engine counters at
// the top level plus the HTTP layer's own block.
type serveStats struct {
	engine.Stats
	Server struct {
		Shed uint64 `json:"shed"`
	} `json:"server"`
}

// fleetStats samples every process's counters.
type fleetStats struct {
	serves []serveStats
	route  *router.Stats
}

func (f *fleet) stats(ctx context.Context) (fleetStats, error) {
	var fs fleetStats
	for _, s := range f.serves {
		var st serveStats
		if err := getJSON(ctx, s.url+"/api/v1/stats", &st); err != nil {
			return fs, err
		}
		fs.serves = append(fs.serves, st)
	}
	if f.route != nil {
		fs.route = &router.Stats{}
		if err := getJSON(ctx, f.route.url+"/api/v1/stats", fs.route); err != nil {
			return fs, err
		}
	}
	return fs, nil
}

// counters are the summed counter deltas between two samples.
type counters struct {
	Queries, Deduped, Fused, Anomalous uint64
	BindHits, BindMisses               uint64
	Shed                               uint64
	FeedbackInstances                  int
	Forwards, Retries, Hedged          uint64
}

// delta sums, over the serves, after minus before, and takes the router
// counters from the router's own stats shape.
func delta(before, after fleetStats) counters {
	var c counters
	for i := range after.serves {
		a, b := after.serves[i], before.serves[i]
		c.Queries += a.Queries - b.Queries
		c.Deduped += a.Deduped - b.Deduped
		c.Fused += a.FusedQueries - b.FusedQueries
		c.Anomalous += a.AnomalousQueries - b.AnomalousQueries
		c.BindHits += a.Bindings.Hits - b.Bindings.Hits
		c.BindMisses += a.Bindings.Misses - b.Bindings.Misses
		c.Shed += a.Server.Shed - b.Server.Shed
		c.FeedbackInstances += a.FeedbackInstances
	}
	if after.route != nil {
		c.Forwards = after.route.Forwards - before.route.Forwards
		c.Retries = after.route.Retries - before.route.Retries
		c.Hedged = after.route.Hedged - before.route.Hedged
	}
	return c
}

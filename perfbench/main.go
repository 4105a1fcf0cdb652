// Command perfbench is the selection service's end-to-end benchmark. It
// boots fresh `lamb serve` (and `lamb route`) processes on ephemeral
// ports, drives one seeded closed-loop workload against them, verifies
// every answer, and prints the end-to-end metrics. With -trace 1 it
// instead replays the workload with spans around the HTTP calls and
// around in-process calls into each layer, and prints per-layer metrics.
// The last line of standard output is one JSON result object.
//
// Run it from the repository root through run.sh, which builds the lamb
// binary first; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	lexec "lamb/internal/exec"
)

// runMeta identifies the conditions of one run, so results taken at
// different times or on different hosts are recognisable as such.
type runMeta struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Start      time.Time `json:"start"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run boots its fleet; set-up time is the
// median.
const setups = 5

func main() {
	// The load generator shares the host with the processes it measures;
	// collecting garbage less often keeps its own CPU use low and even.
	debug.SetGCPercent(400)
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	lambBin := flag.String("lamb", ".bench_build/lamb", "lamb binary")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for result and span files")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	w, err := newWorkload(*workloadName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, f := range []string{*lambBin, profilePath} {
		if _, err := os.Stat(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root through perfbench/run.sh)\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAll()
	meta := runMeta{
		Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		Start: time.Now().UTC(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	metaJSON, _ := json.Marshal(meta) // plain struct, always marshals
	fmt.Printf("perfbench meta %s\n", metaJSON)

	res, report, err := measure(ctx, w, meta, *lambBin, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Print(report)
	line, _ := json.Marshal(res) // maps of plain values, always marshals
	if err := os.WriteFile(filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.Name, *seed, *traceFlag)),
		append(append(metaJSON, '\n'), line...), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// commit returns the source revision when the working directory is the
// top of a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measure boots the fleet setups times, keeps the last one, and runs the
// untraced or the traced measurement against it.
func measure(ctx context.Context, w *workload, meta runMeta, lambBin, outDir string) (result, string, error) {
	logf, err := os.Create(filepath.Join(outDir, "fleet-"+w.Name+".log"))
	if err != nil {
		return result{}, "", err
	}
	defer logf.Close()
	x := &expressions{}
	var f *fleet
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		if f, err = bootFleet(ctx, lambBin, w.Fleet, logf); err != nil {
			return result{}, "", err
		}
		if err := warmUp(ctx, w, f.front()); err != nil {
			f.stop()
			return result{}, "", err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer f.stop()
	before, err := f.stats(ctx)
	if err != nil {
		return result{}, "", err
	}
	d := time.Duration(meta.Seconds) * time.Second
	var rep strings.Builder
	fmt.Fprintf(&rep, "workload %s seed %d: %d closed-loop clients, %d s measured\n", w.Name, meta.Seed, w.Clients, meta.Seconds)
	if !meta.Trace {
		ph := runPhase(ctx, w, x, f.front(), w.Warmup, d, nil)
		after, err := f.stats(ctx)
		if err != nil {
			return result{}, "", err
		}
		rss, err := f.peakRSSMB()
		if err != nil {
			return result{}, "", err
		}
		f.stop()
		checkBatches(x, ph)
		res := endToEnd(w, x, ph, setupTimes, rss, delta(before, after), &rep)
		return res, rep.String(), ctx.Err()
	}

	// Traced run: untraced and traced slices alternate along one request
	// sequence, so drift of the shared host and of the service's own
	// state (caches, the outcome store) falls on both alike; the
	// difference in their throughput is the tracing overhead. Then the
	// layers replay the traced requests in process.
	tr := newTracer()
	plain := &phase{RTT: map[int]time.Duration{}}
	traced := &phase{RTT: map[int]time.Duration{}}
	next := w.Warmup
	const slices = 4
	for k := 0; k < slices; k++ {
		dst, t := plain, (*tracer)(nil)
		if k%2 == 1 {
			dst, t = traced, tr
		}
		ph := runPhase(ctx, w, x, f.front(), next, d/slices, t)
		next = ph.Next
		dst.Elapsed += ph.Elapsed
		dst.merge(ph)
	}
	after, err := f.stats(ctx)
	if err != nil {
		return result{}, "", err
	}
	r, err := newReplayer(w, tr, x)
	if err != nil {
		return result{}, "", err
	}
	ids := sortedIDs(traced.RTT)
	r.replay(ctx, ids, d/2)
	probed := r.probeIdle()
	hop, err := r.routerHop(ctx, f.serveURLs(), ids, 3*time.Second)
	if err != nil {
		return result{}, "", err
	}
	r.loadProfile()
	f.stop()
	checkBatches(x, plain)
	checkBatches(x, traced)
	overhead := float64(plain.Verified)/plain.Elapsed.Seconds()/(float64(traced.Verified)/traced.Elapsed.Seconds()) - 1
	layers := perLayer(tr, r, traced, delta(before, after), hop, plain.Requests+traced.Requests, overhead)
	fmt.Fprintf(&rep, "tracing overhead: %+.1f%% throughput (untraced %d verified in %.2f s, traced %d in %.2f s)\n",
		100*overhead, plain.Verified, plain.Elapsed.Seconds(), traced.Verified, traced.Elapsed.Seconds())
	if len(probed) > 0 {
		fmt.Fprintf(&rep, "probed on this workload's queries, which its traffic does not send there: %s\n", strings.Join(probed, ", "))
	}
	res := result{Metrics: map[string]metric{}}
	for _, m := range layers {
		res.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
		fmt.Fprintf(&rep, "  %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	var all tally
	all.add(plain.Tally)
	all.add(traced.Tally)
	res.Attempted, res.Failed, res.Correct = all.Attempted, all.failed(), all.Wrong == 0
	reportProblems(&rep, plain, traced)
	spansFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, meta.Seed))
	if err := writeSpans(spansFile, meta, tr); err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(&rep, "spans: %d written to %s\n", len(tr.spans), spansFile)
	return res, rep.String(), ctx.Err()
}

// warmUp sends the workload's warm-up requests one at a time; each must
// be answered with 200.
func warmUp(ctx context.Context, w *workload, front string) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	for i := 0; i < w.Warmup; i++ {
		req := w.Request(i)
		if code, body := post(ctx, client, front+req.Path, req.Body); code != 200 {
			return fmt.Errorf("warm-up request %d: status %d: %.200s", i, code, body)
		}
	}
	return nil
}

// checkBatches recomputes every computed batch of a phase on per-instance
// plans, two at a time, and moves mismatching items from verified to
// wrong.
func checkBatches(x *expressions, ph *phase) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan []computedItem)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := lexec.NewMeasured()
			for items := range work {
				wrong, err := checkComputed(x, items, m)
				if err != nil {
					wrong = len(items)
				}
				mu.Lock()
				ph.Tally.Wrong += wrong
				ph.Verified -= wrong
				if wrong > 0 {
					ph.problem("computed batch of %s: %d checksums differ from per-instance execution (%v)", items[0].Query.Expr, wrong, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, items := range ph.Computed {
		work <- items
	}
	close(work)
	wg.Wait()
}

// endToEnd derives the end-to-end metrics of an untraced phase and
// renders them, with the ones the result line does not carry, as a
// table.
func endToEnd(w *workload, x *expressions, ph *phase, setupTimes []float64, rss float64, c counters, rep *strings.Builder) result {
	secs := ph.Elapsed.Seconds()
	win := windows(ph.Samples, secs)
	res := result{
		Correct:   ph.Tally.Wrong == 0,
		Attempted: ph.Tally.Attempted,
		Failed:    ph.Tally.failed(),
		Metrics: map[string]metric{
			"setup_s":        {median(setupTimes), "s"},
			"qps":            {median(win.QPS), "1/s"},
			"latency_p50_ms": {median(win.P50) * 1e3, "ms"},
			"latency_p90_ms": {median(win.P90) * 1e3, "ms"},
			"server_rss_mb":  {rss, "MiB"},
		},
	}
	row := func(name string, v float64, unit, note string) {
		fmt.Fprintf(rep, "  %-18s %14.6g %-6s %s\n", name, v, unit, note)
	}
	m := res.Metrics
	row("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %d boots + warm-up (%s)", len(setupTimes), fmtList(setupTimes)))
	perWindow := fmt.Sprintf("median of %d windows of %.2f s, >= %d samples each", len(win.QPS), secs/float64(len(win.QPS)), win.MinSamples)
	row("qps", m["qps"].Value, "1/s", fmt.Sprintf("%s; %d verified in %.2f s overall", perWindow, ph.Verified, secs))
	row("latency_p50_ms", m["latency_p50_ms"].Value, "ms", fmt.Sprintf("%s; n=%d", perWindow, len(ph.Samples)))
	row("latency_p90_ms", m["latency_p90_ms"].Value, "ms", perWindow)
	lat := make([]float64, len(ph.Samples))
	for i, s := range ph.Samples {
		lat[i] = s.Latency
	}
	sort.Float64s(lat)
	tail := tailPercentile(len(lat))
	row(fmt.Sprintf("latency_p%g_ms", 100*tail), percentile(lat, tail)*1e3, "ms",
		fmt.Sprintf("whole run: highest percentile with >= %d of n=%d samples beyond it", minBeyond, len(lat)))
	fmt.Fprintf(rep, "  per-window qps: %s\n", fmtList(win.QPS))
	row("failed_frac", ph.Tally.failedFrac(), "", fmt.Sprintf("%d of %d attempted (transport %d, 503 %d, other non-200 %d, wrong %d)",
		ph.Tally.failed(), ph.Tally.Attempted, ph.Tally.Transport, ph.Tally.Shed, ph.Tally.Non200, ph.Tally.Wrong))
	if w.Fleet.Backend == "blas" && w.Name == "batch-compute" {
		var flops float64
		for _, items := range ph.Computed {
			for _, it := range items {
				flops += itemFlops(x, it)
			}
		}
		row("computed_gflops", flops/secs/1e9, "GFLOP/s", "FLOPs of the selected algorithms of verified results per second")
	}
	row("server_rss_mb", rss, "MiB", "peak RSS summed over serving processes")
	fmt.Fprintf(rep, "  counters: %d queries, bind hit ratio %.3f, %d deduped, %d fused, %d anomalous, %d forwards, %d retries\n",
		c.Queries, float64(c.BindHits)/math.Max(1, float64(c.BindHits+c.BindMisses)), c.Deduped, c.Fused, c.Anomalous, c.Forwards, c.Retries)
	reportProblems(rep, ph)
	return res
}

// itemFlops is the FLOP count of a computed item's selected algorithm.
func itemFlops(x *expressions, it computedItem) float64 {
	fs, err := x.flops(it.Query)
	if err != nil || it.Alg < 1 || it.Alg > len(fs.flops) {
		return 0
	}
	return fs.flops[it.Alg-1]
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func reportProblems(rep io.Writer, phases ...*phase) {
	for _, ph := range phases {
		for _, p := range ph.Problems {
			fmt.Fprintln(rep, "  problem:", p)
		}
	}
}

// writeSpans dumps the run's metadata, every span, and each layer's total
// self time.
func writeSpans(path string, meta runMeta, tr *tracer) error {
	selfByLayer := map[string]float64{}
	for name, xs := range tr.selfTimes() {
		for _, x := range xs {
			selfByLayer[layerOf(name)] += x
		}
	}
	b, err := json.Marshal(struct {
		Meta        runMeta            `json:"meta"`
		SelfSeconds map[string]float64 `json:"self_seconds_by_layer"`
		Spans       []span             `json:"spans"`
	}{meta, selfByLayer, tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return errors.Join(errors.New("writing spans"), err)
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/outcomes"
	"lamb/internal/profile"
	"lamb/internal/router"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the id of the span that caused this one (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns every span's duration minus the time its child spans
// cover, in seconds, grouped by span name.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e9)
	}
	return out
}

// replayer calls each layer's public functions in process, under spans,
// on the requests a traced phase sent. Its engine is configured like the
// workload's serves.
type replayer struct {
	w     *workload
	tr    *tracer
	x     *expressions
	eng   *engine.Engine
	store *outcomes.Store
	prior selection.Predictor
	timer *exec.Timer
	fuse  *exec.Measured

	doTime   map[int]time.Duration // request id → engine.Do duration
	allocs   []float64             // heap allocations per Do
	nearHits []float64             // observations per Near call
	seen     []probeInput          // the first replayed queries, for probeIdle

	computed             int     // batch items executed
	flops, bytes         float64 // of computed items
	fusedFlops           float64 // of items executed through a batch plan
	fusedItems, seqItems int
	fusedTime, seqTime   time.Duration
	arenaBytes           []float64 // per fused item
	adds                 int       // outcomes.Store.Add calls
	measureWall          time.Duration
	measureKernel        float64 // seconds of kernel time the timer reported
}

func newReplayer(w *workload, tr *tracer, x *expressions) (*replayer, error) {
	r := &replayer{
		w: w, tr: tr, x: x,
		store:  outcomes.NewStore(engine.DefaultFeedbackEntries, time.Hour),
		prior:  selection.FlopsPredictor{},
		timer:  exec.NewTimer(exec.NewMeasured()),
		fuse:   exec.NewMeasured(),
		doTime: map[int]time.Duration{},
	}
	cfg := engine.Config{OutcomeHalfLife: time.Hour}
	if w.Fleet.Backend == "blas" {
		cfg.Executor = exec.NewMeasured()
	}
	if w.Fleet.Profile {
		set, meta, err := profile.ReadFile(profilePath)
		if err != nil {
			return nil, err
		}
		cfg.Profiles, cfg.ProfileMeta = set, meta
		r.prior = selection.MinPredicted{Profiles: set}
	}
	r.eng = engine.New(cfg)
	return r, nil
}

// replay runs the requests with the given ids until budget has passed.
func (r *replayer) replay(ctx context.Context, ids []int, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for _, id := range ids {
		if ctx.Err() != nil || time.Now().After(deadline) {
			return
		}
		r.request(ctx, r.w.Request(id))
	}
}

func (r *replayer) request(ctx context.Context, req request) {
	if req.Kind == kindFeedback {
		fb := *req.Feedback
		x, err := r.x.get(fb.Expr)
		if err != nil {
			return
		}
		s := r.tr.begin("outcomes.Store.Add", req.ID, 0)
		r.store.Add(x.Name(), fb.Instance, fb.Algorithm, fb.Seconds)
		r.tr.end(s)
		r.adds++
		s = r.tr.begin("engine.Engine.Feedback", req.ID, 0)
		_ = r.eng.Feedback(fb) // the served answer was already checked
		r.tr.end(s)
		return
	}
	picks := make([]*lamb.Algorithm, len(req.Queries))
	for k, q := range req.Queries {
		algs, pick := r.selectLayers(req.ID, q)
		picks[k] = &algs[pick]
		if q.Strategy == "oracle" {
			for a := range algs {
				r.measure(req.ID, &algs[a])
			}
		}
	}
	if req.Kind == kindBatch {
		r.execute(req, picks)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	s := r.tr.begin("engine.Engine.Do", req.ID, 0)
	r.eng.Do(ctx, engine.Request{Queries: req.Queries, Compute: req.Kind == kindBatch})
	r.doTime[req.ID] = r.tr.end(s)
	runtime.ReadMemStats(&ms)
	r.allocs = append(r.allocs, float64(ms.Mallocs-before))
}

// selectLayers binds q without any cache, picks by FLOPs, and builds
// the posterior and ranking every served record carries. It returns the
// bound set and the min-FLOPs pick.
func (r *replayer) selectLayers(id int, q engine.Query) ([]lamb.Algorithm, int) {
	x, _ := r.x.get(q.Expr) // generated queries name registered expressions
	s := r.tr.begin("expr.Expression.Algorithms", id, 0)
	algs := x.Algorithms(q.Instance)
	r.tr.end(s)
	s = r.tr.begin("selection.MinFlops.Choose", id, 0)
	pick := selection.MinFlops{}.Choose(algs)
	r.tr.end(s)
	post := r.tr.begin("selection.Adaptive.Posterior", id, 0)
	ad := selection.Adaptive{
		Prior: r.prior,
		Observe: func(inst lamb.Instance) []selection.Observation {
			s := r.tr.begin("outcomes.Store.Near", id, post)
			obs := r.store.Near(x.Name(), inst, selection.DefaultAdaptiveRadius)
			r.tr.end(s)
			r.nearHits = append(r.nearHits, float64(len(obs)))
			return obs
		},
	}
	posterior := ad.Posterior(q.Instance, algs)
	r.tr.end(post)
	if len(r.seen) < maxProbeInputs {
		r.seen = append(r.seen, probeInput{id, x.Name(), q.Instance, &algs[pick], posterior[pick].Mean})
	}
	s = r.tr.begin("selection.WinProbabilities", id, 0)
	selection.WinProbabilities(posterior, xrand.NewLabeled(1, x.Name()+"|"+q.Instance.String()), 0)
	r.tr.end(s)
	return algs, pick
}

// measure times one candidate with the paper's protocol and compiles and
// runs it once more on its own plan.
func (r *replayer) measure(id int, alg *lamb.Algorithm) {
	s := r.tr.begin("exec.Timer.MeasureAlgorithm", id, 0)
	m := r.timer.MeasureAlgorithm(alg)
	r.measureWall += r.tr.end(s)
	r.measureKernel += m.Total * float64(r.timer.Reps)
	r.executeOne(id, alg, xrand.New(fillSeed))
}

// executeOne compiles alg into its own plan and executes it once.
func (r *replayer) executeOne(id int, alg *lamb.Algorithm, rng *xrand.Rand) {
	s := r.tr.begin("exec.CompilePlan", id, 0)
	p, err := exec.CompilePlan(alg)
	r.tr.end(s)
	if err != nil {
		return
	}
	p.FillInputs(rng)
	s = r.tr.begin("exec.Plan.Execute", id, 0)
	p.Execute()
	r.seqTime += r.tr.end(s)
	r.seqItems++
}

// execute runs a computed batch's picks both ways the engine can: every
// item on its own plan, and each fusable group through one batch plan.
func (r *replayer) execute(req request, picks []*lamb.Algorithm) {
	items := make([]computedItem, len(picks))
	for k, alg := range picks {
		items[k] = computedItem{Query: req.Queries[k], Alg: alg.Index, Fused: true}
		r.executeOne(req.ID, alg, xrand.New(fillSeed))
		r.computed++
		r.flops += alg.Flops()
		for _, sh := range alg.Shapes {
			r.bytes += float64(8 * sh.Rows * sh.Cols)
		}
	}
	for _, group := range fusedChunks(items, picks, r.fuse) {
		if len(group) < 2 {
			continue
		}
		algs := make([]*lamb.Algorithm, len(group))
		for k, i := range group {
			algs[k] = picks[i]
		}
		r.fuseGroup(req.ID, algs)
	}
}

// fuseGroup compiles algs into one mixed batch plan and executes it
// once.
func (r *replayer) fuseGroup(id int, algs []*lamb.Algorithm) {
	s := r.tr.begin("exec.CompileBatchPlanMixed", id, 0)
	p, err := exec.CompileBatchPlanMixed(algs)
	r.tr.end(s)
	if err != nil {
		return
	}
	p.FillInputs(xrand.New(fillSeed))
	s = r.tr.begin("exec.MixedBatchPlan.Execute", id, 0)
	p.Execute()
	r.fusedTime += r.tr.end(s)
	r.fusedItems += len(algs)
	for _, alg := range algs {
		r.fusedFlops += alg.Flops()
		r.arenaBytes = append(r.arenaBytes, float64(8*p.ArenaLen())/float64(len(algs)))
	}
}

// probeInput is one replayed query: its request id, expression name,
// instance, min-FLOPs pick and the pick's posterior mean.
type probeInput struct {
	id   int
	name string
	inst lamb.Instance
	pick *lamb.Algorithm
	mean float64
}

// maxProbeInputs is how many replayed queries probeIdle chooses from.
const maxProbeInputs = 64

// probeIdle measures, on this workload's own replayed queries, the layers
// its traffic did not reach, so that every per-layer time is measured on
// every workload. outcomes.Store.Add records each query's pick at its
// posterior mean into a private store. The exec layer compiles,
// executes, fuses (two copies) and times the pick with the fewest FLOPs.
// It returns the probed span names.
func (r *replayer) probeIdle() []string {
	if len(r.seen) == 0 {
		return nil
	}
	var probed []string
	if r.adds == 0 {
		st := outcomes.NewStore(len(r.seen), 0)
		for _, in := range r.seen {
			s := r.tr.begin("outcomes.Store.Add", in.id, 0)
			st.Add(in.name, in.inst, in.pick.Index, in.mean)
			r.tr.end(s)
		}
		probed = append(probed, "outcomes.Store.Add")
	}
	small := r.seen[0]
	for _, in := range r.seen[1:] {
		if in.pick.Flops() < small.pick.Flops() {
			small = in
		}
	}
	if r.seqItems == 0 {
		for k := 0; k < 3; k++ {
			r.executeOne(small.id, small.pick, xrand.New(fillSeed))
		}
		probed = append(probed, "exec.CompilePlan", "exec.Plan.Execute")
	}
	if r.fusedItems == 0 {
		r.fuseGroup(small.id, []*lamb.Algorithm{small.pick, small.pick})
		probed = append(probed, "exec.CompileBatchPlanMixed", "exec.MixedBatchPlan.Execute")
	}
	if r.measureWall == 0 {
		r.measure(small.id, small.pick)
		probed = append(probed, "exec.Timer.MeasureAlgorithm")
	}
	return probed
}

// hopResult is what the in-process router measurement observed.
type hopResult struct {
	// Hops holds, per request, routed minus direct round-trip time in
	// seconds; Direct maps request id to its direct round-trip time.
	Hops   []float64
	Direct map[int]time.Duration
	Stats  router.Stats
}

// routerHop measures the router layer in process: a router built over
// the fleet's serves, with the same requests sent to a serve directly
// and through the router. Each request is sent once untimed first, so
// neither timed send pays for cold caches, and the timed order
// alternates.
func (r *replayer) routerHop(ctx context.Context, serves []string, ids []int, budget time.Duration) (hopResult, error) {
	res := hopResult{Direct: map[int]time.Duration{}}
	s := r.tr.begin("router.New", -1, 0)
	rt, err := router.New(router.Config{Backends: serves})
	r.tr.end(s)
	if err != nil {
		return res, err
	}
	defer rt.Close()
	s = r.tr.begin("router.Router.Handler", -1, 0)
	h := rt.Handler()
	r.tr.end(s)
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	deadline := time.Now().Add(budget)
	for n, id := range ids {
		if ctx.Err() != nil || time.Now().After(deadline) || len(res.Hops) >= 200 {
			break
		}
		req := r.w.Request(id)
		body := req.Body
		switch req.Kind {
		case kindFeedback:
			continue
		case kindBatch:
			// The router forwards batches without the compute flag, so
			// both sides send the selection-only batch it would forward.
			body, _ = json.Marshal(batchRequest{Queries: req.Queries}) // always marshals
		}
		ok := true
		send := func(name, base string) time.Duration {
			s := r.tr.begin(name, id, 0)
			code, _ := post(ctx, client, base+req.Path, body)
			ok = ok && code == http.StatusOK
			return r.tr.end(s)
		}
		send("http.warm", serves[0])
		var direct, routed time.Duration
		if n%2 == 0 {
			direct, routed = send("http.direct", serves[0]), send("http.routed", srv.URL)
		} else {
			routed, direct = send("http.routed", srv.URL), send("http.direct", serves[0])
		}
		if !ok {
			continue
		}
		res.Hops = append(res.Hops, (routed - direct).Seconds())
		res.Direct[id] = direct
	}
	for k := 0; k < 3; k++ {
		s := r.tr.begin("router.Router.MergeRound", -1, 0)
		rt.MergeRound(ctx)
		r.tr.end(s)
	}
	s = r.tr.begin("router.Router.Stats", -1, 0)
	res.Stats = rt.Stats()
	r.tr.end(s)
	return res, nil
}

// loadProfile times profile.ReadFile on the store profiled serves boot
// with.
func (r *replayer) loadProfile() {
	for k := 0; k < 5; k++ {
		s := r.tr.begin("profile.ReadFile", -1, 0)
		_, _, _ = profile.ReadFile(profilePath) // the fleet already booted from this file
		r.tr.end(s)
	}
}

// layerMetric is one per-layer metric value with its unit.
type layerMetric struct {
	Name  string
	Unit  string
	Value float64
}

// perLayer derives the per-layer metrics from the traced phase, the
// replay's spans and counters, the in-process router and the fleet's
// counter deltas over the measured phases.
func perLayer(tr *tracer, r *replayer, traced *phase, c counters, hop hopResult, requests int, overhead float64) []layerMetric {
	self := tr.selfTimes()
	us := func(name string) float64 { return median(self[name]) * 1e6 }
	ms := func(name string) float64 { return median(self[name]) * 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Serve self time pairs each request's direct round trip with the
	// replayed engine.Do of the same request; behind a router the direct
	// trips are the in-process router measurement's.
	rtts := traced.RTT
	if r.w.Fleet.Route {
		rtts = hop.Direct
	}
	var serveSelf []float64
	for id, rtt := range rtts {
		if do, ok := r.doTime[id]; ok {
			serveSelf = append(serveSelf, (rtt - do).Seconds())
		}
	}
	perRequest := float64(requests)
	forwards, retries, hedged := float64(c.Forwards), float64(c.Retries), float64(c.Hedged)
	if !r.w.Fleet.Route {
		// No router process in this fleet: count the in-process
		// router's forwards over the requests it carried.
		perRequest = float64(len(hop.Hops))
		forwards, retries, hedged = float64(hop.Stats.Forwards), float64(hop.Stats.Retries), float64(hop.Stats.Hedged)
	}
	compile := append(append([]float64(nil), self["exec.CompilePlan"]...), self["exec.CompileBatchPlanMixed"]...)
	return []layerMetric{
		{"serve.self_us", "us", median(serveSelf) * 1e6},
		{"serve.resp_bytes", "bytes", ratio(float64(traced.RespBytes), float64(traced.Responses))},
		{"serve.shed", "count", float64(c.Shed)},
		{"router.self_us", "us", median(hop.Hops) * 1e6},
		{"router.forwards", "1/request", ratio(forwards, perRequest)},
		{"router.retries", "1/request", ratio(retries, perRequest)},
		{"router.hedged", "1/request", ratio(hedged, perRequest)},
		{"router.merge_round_ms", "ms", ms("router.Router.MergeRound")},
		{"engine.do_us", "us", us("engine.Engine.Do")},
		{"engine.do_allocs", "count", median(r.allocs)},
		{"engine.bind_hit_ratio", "ratio", ratio(float64(c.BindHits), float64(c.BindHits+c.BindMisses))},
		{"engine.deduped_ratio", "ratio", ratio(float64(c.Deduped), float64(c.Queries))},
		{"engine.fused_ratio", "ratio", ratio(float64(c.Fused), float64(c.Queries))},
		{"engine.anomalous_ratio", "ratio", ratio(float64(c.Anomalous), float64(c.Queries))},
		{"expr.bind_us", "us", us("expr.Expression.Algorithms")},
		{"selection.rank_us", "us", us("selection.WinProbabilities")},
		{"selection.posterior_us", "us", us("selection.Adaptive.Posterior")},
		{"selection.choose_us", "us", us("selection.MinFlops.Choose")},
		{"outcomes.add_us", "us", us("outcomes.Store.Add")},
		{"outcomes.near_us", "us", us("outcomes.Store.Near")},
		{"outcomes.near_hits", "count", mean(r.nearHits)},
		{"outcomes.size", "count", float64(c.FeedbackInstances)},
		{"exec.compile_us", "us", median(compile) * 1e6},
		{"exec.execute_us_per_query", "us", ratio(r.fusedTime.Seconds(), float64(r.fusedItems)) * 1e6},
		{"exec.execute_seq_us_per_query", "us", ratio(r.seqTime.Seconds(), float64(r.seqItems)) * 1e6},
		{"exec.arena_bytes", "bytes", mean(r.arenaBytes)},
		{"exec.measure_ms", "ms", ms("exec.Timer.MeasureAlgorithm")},
		{"exec.measure_overhead_ratio", "ratio", ratio(r.measureWall.Seconds(), r.measureKernel)},
		{"blas.gflops", "GFLOP/s", ratio(r.fusedFlops, r.fusedTime.Seconds()) / 1e9},
		{"blas.flops_per_query", "count", ratio(r.flops, float64(r.computed))},
		{"blas.bytes_per_flop", "bytes/flop", ratio(r.bytes, r.flops)},
		{"profile.load_ms", "ms", ms("profile.ReadFile")},
		{"trace.overhead_ratio", "ratio", overhead},
		{"trace.spans", "count", float64(len(tr.spans))},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedIDs returns the request ids of a traced phase in sequence order.
func sortedIDs(rtt map[int]time.Duration) []int {
	ids := make([]int, 0, len(rtt))
	for id := range rtt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// layerOf names the layer a span belongs to: the text before its first
// dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/selection"
	"lamb/internal/xrand"
)

// kind is what one generated request asks the service to do.
type kind int

const (
	kindQuery kind = iota
	kindBatch
	kindFeedback
)

// request is one generated HTTP request. Its bytes depend only on the
// workload seed and the request's position in the sequence.
type request struct {
	ID       int
	Kind     kind
	Path     string
	Body     []byte
	Queries  []engine.Query
	Feedback *engine.Feedback
}

// fleetSpec describes the processes a workload runs against.
type fleetSpec struct {
	Backend string // serve -backend: sim or blas
	Serves  int
	Route   bool // front the serves with one `lamb route`
	Profile bool // serve with -profile testdata/profile-ci.json
}

// workload is one traffic mix: the fleet it needs, how many closed-loop
// clients drive it, and its seeded request generator.
type workload struct {
	Name    string
	Fleet   fleetSpec
	Clients int
	// Warmup requests are sent before timing starts and count only
	// towards set-up time.
	Warmup int
	gen    func(i int) request
}

// Request returns the i-th request of the workload's sequence.
func (w *workload) Request(i int) request {
	r := w.gen(i)
	r.ID = i
	return r
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"query-minflops", "query-routed-adaptive", "batch-compute", "oracle-measured"}

// batchSize is the number of queries in one batch-compute request.
const batchSize = 64

// newWorkload builds the named workload's generator for seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "query-minflops":
		return queryMinFlops(seed)
	case "query-routed-adaptive":
		return queryRoutedAdaptive(seed)
	case "batch-compute":
		return batchCompute(seed), nil
	case "oracle-measured":
		return oracleMeasured(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// reqRand is request i's private random stream: every request is a pure
// function of (seed, workload, i), whichever client sends it.
func reqRand(seed uint64, label string, i int) *xrand.Rand {
	return xrand.NewLabeled(xrand.Hash64(seed, uint64(i)), label)
}

// randInstance draws arity dimensions uniformly from [lo, hi).
func randInstance(r *xrand.Rand, arity, lo, hi int) lamb.Instance {
	inst := make(lamb.Instance, arity)
	for k := range inst {
		inst[k] = lo + r.Intn(hi-lo)
	}
	return inst
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverting the cumulative weights.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) sample(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// querySpec is one expression of a query mix with its arity and the
// range its dimensions are drawn from.
type querySpec struct {
	Expr   string
	Arity  int
	Lo, Hi int
}

// workingSet draws n instances cycling through specs.
func workingSet(seed uint64, label string, n int, specs []querySpec) []engine.Query {
	r := xrand.NewLabeled(seed, label)
	ws := make([]engine.Query, n)
	for k := range ws {
		s := specs[k%len(specs)]
		ws[k] = engine.Query{Expr: s.Expr, Instance: randInstance(r, s.Arity, s.Lo, s.Hi)}
	}
	return ws
}

func queryRequest(q engine.Query) request {
	body, _ := json.Marshal(q) // engine.Query always marshals
	return request{Kind: kindQuery, Path: "/api/v1/query", Body: body, Queries: []engine.Query{q}}
}

// queryMinFlops: single min-FLOPs queries over a Zipf-popular working
// set three times the serve's 512-entry bind LRU, so both bind hits and
// misses occur.
func queryMinFlops(seed uint64) (*workload, error) {
	ws := workingSet(seed, "query-minflops/ws", 3*engine.DefaultBindEntries, []querySpec{
		{"chain", 5, 20, 1000}, {"aatb", 3, 20, 1000}, {"gls", 4, 20, 1000},
	})
	z := newZipf(len(ws), 1.0)
	return &workload{
		Name:    "query-minflops",
		Fleet:   fleetSpec{Backend: "sim", Serves: 1},
		Clients: 1,
		Warmup:  300,
		gen: func(i int) request {
			return queryRequest(ws[z.sample(reqRand(seed, "query-minflops", i).Float64())])
		},
	}, nil
}

// regionSize is the number of distinct instances in the routed
// workload's contradicted region.
const regionSize = 32

// queryRoutedAdaptive: adaptive queries through a router over two
// profiled serves, with every fourth request a feedback report that
// contradicts the min-FLOPs pick in a seeded aatb region.
func queryRoutedAdaptive(seed uint64) (*workload, error) {
	ws := workingSet(seed, "query-routed-adaptive/ws", 768, []querySpec{
		{"aatb", 3, 50, 800}, {"gls", 4, 50, 800}, {"chain", 5, 50, 800},
	})
	z := newZipf(len(ws), 1.0)
	x, err := lamb.LookupExpression("aatb")
	if err != nil {
		return nil, err
	}
	// The region: instances within ±5% of a seeded base, each with its
	// min-FLOPs pick and the runner-up by FLOPs. Feedback reports the
	// pick far slower and the runner-up faster than any prediction, so
	// adaptive answers in the region flip and the anomaly flag fires.
	r := xrand.NewLabeled(seed, "query-routed-adaptive/region")
	base := randInstance(r, 3, 200, 400)
	type point struct {
		inst           lamb.Instance
		pick, runnerUp int
	}
	region := make([]point, regionSize)
	for k := range region {
		inst := make(lamb.Instance, len(base))
		for d, b := range base {
			inst[d] = int(math.Round(float64(b) * (0.95 + 0.1*r.Float64())))
		}
		algs := x.Algorithms(inst)
		pick := selection.MinFlops{}.Choose(algs)
		runnerUp := -1
		for a := range algs {
			if a != pick && (runnerUp < 0 || algs[a].Flops() < algs[runnerUp].Flops()) {
				runnerUp = a
			}
		}
		region[k] = point{inst, algs[pick].Index, algs[runnerUp].Index}
	}
	return &workload{
		Name:    "query-routed-adaptive",
		Fleet:   fleetSpec{Backend: "sim", Serves: 2, Route: true, Profile: true},
		Clients: 1,
		Warmup:  300,
		gen: func(i int) request {
			r := reqRand(seed, "query-routed-adaptive", i)
			if i%4 == 3 {
				p := region[r.Intn(len(region))]
				fb := engine.Feedback{Expr: "aatb", Instance: p.inst, Algorithm: p.pick, Seconds: 0.5 * (1 + 0.1*r.Float64())}
				if r.Intn(2) == 0 {
					fb.Algorithm, fb.Seconds = p.runnerUp, 1e-4*(1+0.1*r.Float64())
				}
				body, _ := json.Marshal(fb) // engine.Feedback always marshals
				return request{Kind: kindFeedback, Path: "/api/v1/feedback", Body: body, Feedback: &fb}
			}
			q := ws[z.sample(r.Float64())]
			if r.Float64() < 0.3 {
				q = engine.Query{Expr: "aatb", Instance: region[r.Intn(len(region))].inst}
			}
			q.Strategy = "adaptive"
			return queryRequest(q)
		},
	}, nil
}

// batchRequest is the body of POST /api/v1/batch.
type batchRequest struct {
	Queries []engine.Query `json:"queries"`
	Compute bool           `json:"compute,omitempty"`
}

// batchCompute: computed batches of 64 min-FLOPs queries with every
// dimension drawn from one power-of-two octave, alternating aatb in
// [64,128) and gls in [32,64), where computing dominates selecting.
func batchCompute(seed uint64) *workload {
	specs := []querySpec{{"aatb", 3, 64, 128}, {"gls", 4, 32, 64}}
	return &workload{
		Name:    "batch-compute",
		Fleet:   fleetSpec{Backend: "blas", Serves: 1},
		Clients: 2,
		Warmup:  4,
		gen: func(i int) request {
			r := reqRand(seed, "batch-compute", i)
			s := specs[i%len(specs)]
			qs := make([]engine.Query, batchSize)
			for k := range qs {
				qs[k] = engine.Query{Expr: s.Expr, Instance: randInstance(r, s.Arity, s.Lo, s.Hi)}
			}
			body, _ := json.Marshal(batchRequest{Queries: qs, Compute: true}) // always marshals
			return request{Kind: kindBatch, Path: "/api/v1/batch", Body: body, Queries: qs}
		},
	}
}

// oracleMeasured: single oracle queries on seeded small aatb instances,
// each answered by timing all five candidates with the paper's
// cold-cache median-of-10 protocol. One expression keeps the latency
// distribution unimodal, so its median is stable across seeds.
func oracleMeasured(seed uint64) *workload {
	specs := []querySpec{{"aatb", 3, 24, 64}}
	return &workload{
		Name:    "oracle-measured",
		Fleet:   fleetSpec{Backend: "blas", Serves: 1},
		Clients: 1,
		Warmup:  1,
		gen: func(i int) request {
			r := reqRand(seed, "oracle-measured", i)
			s := specs[i%len(specs)]
			return queryRequest(engine.Query{Expr: s.Expr, Instance: randInstance(r, s.Arity, s.Lo, s.Hi), Strategy: "oracle"})
		},
	}
}

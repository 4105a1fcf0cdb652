package main

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/exec"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// expressions caches one expression object per registered name, so
// binding an instance enumerates nothing twice, and a FLOP summary per
// bound instance, so repeated queries are checked without rebinding.
// Binding itself is safe for concurrent use.
type expressions struct {
	mu      sync.Mutex
	m       map[string]lamb.Expression
	summary map[string]flopSummary
}

// flopSummary is what record checks need of an independently bound set:
// the FLOP count of each algorithm, by 1-based index.
type flopSummary struct {
	flops    []float64
	minFlops float64
}

// maxSummaries bounds the summary cache; it is emptied when full.
const maxSummaries = 1 << 16

func (e *expressions) get(name string) (lamb.Expression, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if x, ok := e.m[name]; ok {
		return x, nil
	}
	x, err := lamb.LookupExpression(name)
	if err != nil {
		return nil, err
	}
	if e.m == nil {
		e.m = map[string]lamb.Expression{}
	}
	e.m[name] = x
	return x, nil
}

// algorithms binds q's instance outside any engine: the independent
// candidate set answers are checked against.
func (e *expressions) algorithms(q engine.Query) ([]lamb.Algorithm, error) {
	x, err := e.get(strings.ToLower(q.Expr))
	if err != nil {
		return nil, err
	}
	if err := x.Validate(q.Instance); err != nil {
		return nil, err
	}
	return x.Algorithms(q.Instance), nil
}

// flops returns the FLOP summary of q's independently bound set.
func (e *expressions) flops(q engine.Query) (flopSummary, error) {
	key := strings.ToLower(q.Expr) + q.Instance.String()
	e.mu.Lock()
	fs, ok := e.summary[key]
	e.mu.Unlock()
	if ok {
		return fs, nil
	}
	algs, err := e.algorithms(q)
	if err != nil {
		return flopSummary{}, err
	}
	fs = flopSummary{flops: make([]float64, len(algs)), minFlops: math.Inf(1)}
	for i := range algs {
		if algs[i].Index != i+1 {
			return flopSummary{}, fmt.Errorf("%s%v: algorithm %d listed at position %d", q.Expr, q.Instance, algs[i].Index, i+1)
		}
		fs.flops[i] = algs[i].Flops()
		fs.minFlops = math.Min(fs.minFlops, fs.flops[i])
	}
	e.mu.Lock()
	if e.summary == nil || len(e.summary) >= maxSummaries {
		e.summary = map[string]flopSummary{}
	}
	e.summary[key] = fs
	e.mu.Unlock()
	return fs, nil
}

// checkRecord verifies one served record against an independent
// binding of its query:
//
//   - the record answers the query asked, with the whole candidate set;
//   - the selected algorithm is a candidate;
//   - a min-flops answer selects an algorithm of minimal FLOP count;
//   - an adaptive or oracle answer is undegraded and names its strategy;
//   - the ranking covers every candidate once, each p_best lies in
//     [0, 1] and the column sums to 1 within 1e-9. The values themselves
//     are not pinned, so any correct ranking method passes.
func checkRecord(x *expressions, q engine.Query, rec *engine.Record) error {
	fs, err := x.flops(q)
	if err != nil {
		return err
	}
	if rec.Expr != strings.ToLower(q.Expr) || rec.Instance.String() != q.Instance.String() {
		return fmt.Errorf("record answers %s%v, asked %s%v", rec.Expr, rec.Instance, q.Expr, q.Instance)
	}
	n := len(fs.flops)
	if rec.NumAlgorithms != n || len(rec.Candidates) != n {
		return fmt.Errorf("%s%v: record has %d/%d candidates, want %d", q.Expr, q.Instance, rec.NumAlgorithms, len(rec.Candidates), n)
	}
	sel := rec.Selected.Index
	if sel < 1 || sel > n {
		return fmt.Errorf("%s%v: selected algorithm %d is not a candidate", q.Expr, q.Instance, sel)
	}
	strategy := q.Strategy
	if strategy == "" {
		strategy = engine.DefaultStrategy
	}
	switch {
	case rec.Strategy != strategy || rec.Degraded != "":
		return fmt.Errorf("%s%v: asked %s, answered %s (degraded %q)", q.Expr, q.Instance, strategy, rec.Strategy, rec.Degraded)
	case strategy == "min-flops" && fs.flops[sel-1] != fs.minFlops:
		return fmt.Errorf("%s%v: min-flops picked algorithm %d with %g FLOPs, minimum is %g",
			q.Expr, q.Instance, sel, fs.flops[sel-1], fs.minFlops)
	}
	if len(rec.Ranking) != n {
		return fmt.Errorf("%s%v: ranking has %d entries, want %d", q.Expr, q.Instance, len(rec.Ranking), n)
	}
	seen := make(map[int]bool, n)
	var sum float64
	for _, e := range rec.Ranking {
		if e.Alg < 1 || e.Alg > n || seen[e.Alg] {
			return fmt.Errorf("%s%v: ranking entry for algorithm %d is out of range or repeated", q.Expr, q.Instance, e.Alg)
		}
		seen[e.Alg] = true
		if !(e.PBest >= 0 && e.PBest <= 1) {
			return fmt.Errorf("%s%v: p_best %v of algorithm %d outside [0, 1]", q.Expr, q.Instance, e.PBest, e.Alg)
		}
		sum += e.PBest
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%s%v: p_best sums to %.17g, want 1", q.Expr, q.Instance, sum)
	}
	return nil
}

// fillSeed is the seed of the stream a serve fills unsupplied operands
// from when computing results: each fused plan, and each instance
// computed on its own, starts a fresh stream at this seed.
const fillSeed = 0x5ab5

// computedItem is one batch item's served answer with its result block.
type computedItem struct {
	Query    engine.Query
	Alg      int // selected algorithm index
	Fused    bool
	Rows     int
	Cols     int
	Checksum float64
}

// fusedChunks splits a computed batch into the groups whose instances
// share one fill stream, in request order. Items sharing an expression,
// a selected algorithm and a power-of-two octave in every dimension form
// one bucket, executed in chunks of the smallest fuse width over the
// bucket. A chunk whose items all report fused shares one stream; every
// other item has a stream of its own. algOf[i] is item i's selected
// algorithm.
func fusedChunks(items []computedItem, algOf []*lamb.Algorithm, m *exec.Measured) [][]int {
	var order []string
	buckets := map[string][]int{}
	for i, it := range items {
		key := strings.ToLower(it.Query.Expr) + "#" + strconv.Itoa(it.Alg) + "#" + octaves(it.Query.Instance)
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], i)
	}
	var groups [][]int
	for _, key := range order {
		idxs := buckets[key]
		width := 0
		for _, i := range idxs {
			if w := m.FuseWidth(algOf[i]); width == 0 || w < width {
				width = w
			}
		}
		width = max(width, 1)
		for lo := 0; lo < len(idxs); lo += width {
			chunk := idxs[lo:min(lo+width, len(idxs))]
			shared := len(chunk) >= 2
			for _, i := range chunk {
				shared = shared && items[i].Fused
			}
			if shared {
				groups = append(groups, chunk)
				continue
			}
			for _, i := range chunk {
				groups = append(groups, []int{i})
			}
		}
	}
	return groups
}

// octaves renders ⌊log2 d⌋ of every dimension.
func octaves(inst lamb.Instance) string {
	parts := make([]string, len(inst))
	for i, d := range inst {
		parts[i] = strconv.Itoa(bits.Len(uint(d)) - 1)
	}
	return strings.Join(parts, "x")
}

// checkComputed recomputes every item of one computed batch on its own
// compiled plan, on the operands the serve's fill stream gave it, and
// compares checksums bitwise: fused execution must equal per-instance
// execution exactly. It returns the number of mismatching items.
func checkComputed(x *expressions, items []computedItem, m *exec.Measured) (wrong int, err error) {
	algOf := make([]*lamb.Algorithm, len(items))
	for i, it := range items {
		algs, err := x.algorithms(it.Query)
		if err != nil {
			return 0, err
		}
		for k := range algs {
			if algs[k].Index == it.Alg {
				algOf[i] = &algs[k]
			}
		}
		if algOf[i] == nil {
			return 0, fmt.Errorf("%s%v: algorithm %d not in the set", it.Query.Expr, it.Query.Instance, it.Alg)
		}
	}
	for _, group := range fusedChunks(items, algOf, m) {
		rng := xrand.New(fillSeed)
		for _, i := range group {
			p, err := exec.CompilePlan(algOf[i])
			if err != nil {
				return 0, err
			}
			p.FillInputs(rng)
			p.Execute()
			out := p.Output()
			it := items[i]
			if out.Rows != it.Rows || out.Cols != it.Cols || math.Float64bits(checksum(out)) != math.Float64bits(it.Checksum) {
				wrong++
			}
		}
	}
	return wrong, nil
}

// checksum sums a matrix's elements column by column, in the order the
// serve's result block does.
func checksum(d *mat.Dense) float64 {
	var sum float64
	for c := 0; c < d.Cols; c++ {
		for _, v := range d.Data[c*d.Stride : c*d.Stride+d.Rows] {
			sum += v
		}
	}
	return sum
}

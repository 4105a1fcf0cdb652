package engine

// Fused result execution: a Do request with Compute set answers a batch
// of queries AND computes each query's result, routing same-algorithm
// queries of similar shape through one fused batch plan. Selection goes
// through the ordinary batched pipeline (coalescing, singleflight); the
// execution step then buckets the answered queries by (expression,
// selected algorithm index, shape octave) — same expression, same
// algorithm family, shapes within one power-of-two octave per dimension
// — and executes each bucket, one cache-sized chunk at a time, through
// a MixedBatchPlan padded to a common stride, whether its instances are
// identical or mixed. That amortises the per-dispatch fixed costs that
// dominate the small-instance regime; chunks of concurrent requests
// share the execution lock, so they run on different cores. Buckets
// that cannot fuse (no batched executor, instance arenas over the slab
// budget, padding overhead too high) fall back to per-query execution
// and are counted, by reason, in Stats.FuseRejected.

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// batchFillSeed seeds the deterministic stream that fills operands the
// caller did not supply, so default-filled results are reproducible.
const batchFillSeed = 0x5ab5

// heteroPaddingMax is the padding-overhead gate for mixed buckets: a
// mixed plan pads every instance slab to the largest stride in the
// bucket, and fuse widths are inversely proportional to stride, so a
// width spread beyond this factor means the small instances would
// waste most of their padded slabs. Such buckets execute unfused and
// count as HeteroPrepadding rejects.
const heteroPaddingMax = 4

// queryBatchExecCtx answers the queries (through queryBatchCtx:
// within-batch coalescing, singleflight) and then executes each query's
// selected algorithm, returning records and results in request order.
// inputs[i], when present, supplies query i's input operands by ID
// (shapes must match the instance); missing operands are filled from a
// deterministic stream. Queries that selected the same algorithm of the
// same expression at shapes within one power-of-two octave per
// dimension are executed through one fused batch plan per chunk and
// marked Fused; each fused-executed query counts in Stats.FusedQueries.
// Buckets outside the fused regime execute per query and count in
// Stats.FuseRejected by reason.
func (e *Engine) queryBatchExecCtx(ctx context.Context, qs []Query, inputs []map[string]*mat.Dense) []Result {
	out := e.queryBatchCtx(ctx, qs)
	algOf := make([]*expr.Algorithm, len(qs))
	buckets := make(map[string][]int)
	var order []string
	for i := range out {
		if out[i].Err != nil || out[i].Record == nil {
			continue
		}
		algs, err := e.Algorithms(qs[i].Expr, qs[i].Instance)
		if err != nil {
			out[i].Err = err
			continue
		}
		for j := range algs {
			if algs[j].Index == out[i].Record.Selected.Index {
				algOf[i] = &algs[j]
				break
			}
		}
		if algOf[i] == nil {
			out[i].Err = fmt.Errorf("engine: selected algorithm %d not in bound set", out[i].Record.Selected.Index)
			continue
		}
		key := out[i].Record.Expr + "#" + strconv.Itoa(algOf[i].Index) + "#" + shapeOctaves(qs[i].Instance)
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], i)
	}
	for _, key := range order {
		e.execBucket(buckets[key], inputs, algOf, out)
	}
	return out
}

// shapeOctaves renders the instance's per-dimension power-of-two octave
// (⌊log2 d⌋), the bucketing coordinate: two instances in one octave
// differ by less than 2× in every dimension, so their padded arenas
// waste at most a bounded fraction of the common stride.
func shapeOctaves(inst expr.Instance) string {
	var b strings.Builder
	for i, d := range inst {
		if i > 0 {
			b.WriteByte('x')
		}
		o := 0
		if d > 0 {
			o = bits.Len(uint(d)) - 1
		}
		b.WriteString(strconv.Itoa(o))
	}
	return b.String()
}

// execBucket executes one bucket of answered queries, fused when the
// executor and the regime allow, per query otherwise (with the reject
// reason counted).
func (e *Engine) execBucket(idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []Result) {
	if len(idxs) < 2 {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	be, ok := e.timer.Exec.(exec.BatchExecutor)
	if !ok {
		e.rejUnregistered.Add(uint64(len(idxs)))
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	// The bucket's width is its minimum FuseWidth: the chunk whose
	// common (largest) stride still fits the slab budget.
	width, maxWidth := 0, 0
	for _, i := range idxs {
		w := be.FuseWidth(algOf[i])
		if w < 2 {
			width = 0
			break
		}
		if width == 0 || w < width {
			width = w
		}
		maxWidth = max(maxWidth, w)
	}
	if width < 2 {
		e.rejTooBig.Add(uint64(len(idxs)))
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	if maxWidth > heteroPaddingMax*width {
		e.rejHetero.Add(uint64(len(idxs)))
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	for lo := 0; lo < len(idxs); lo += width {
		sub := idxs[lo:min(lo+width, len(idxs))]
		if len(sub) < 2 {
			e.execUnfused(sub, inputs, algOf, out)
			continue
		}
		e.execFusedChunk(sub, inputs, algOf, out)
	}
}

// execFusedChunk executes up to one fuse width of a bucket through one
// fused plan. Any compile or execution failure (e.g. a non-SPD input to
// a Cholesky-based algorithm) falls back to per-query execution, so one
// bad query cannot take its bucket neighbours down.
func (e *Engine) execFusedChunk(idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []Result) {
	algs := make([]*expr.Algorithm, len(idxs))
	for k, i := range idxs {
		algs[k] = algOf[i]
	}
	p, err := exec.CompileBatchPlanMixed(algs)
	if err != nil {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	if e.onFusedPlan != nil {
		e.onFusedPlan(p)
	}
	// Fill, override, execute, and copy outputs under the shared
	// execution lock: fused chunks of other requests may run beside
	// this one, a timed measurement may not.
	e.execMu.RLock()
	failed := runFused(p, idxs, inputs, algOf)
	if failed == nil {
		for k, i := range idxs {
			o := p.Output(k)
			cp := mat.New(o.Rows, o.Cols)
			mat.Copy(cp, o)
			out[i].Output = cp
			out[i].Fused = true
		}
	}
	e.execMu.RUnlock()
	p.Release()
	if failed != nil {
		e.execUnfused(idxs, inputs, algOf, out)
		return
	}
	e.fused.Add(uint64(len(idxs)))
}

// runFused drives one fused plan execution, converting kernel panics
// (shape mismatches, non-SPD operands) into an error.
func runFused(p *exec.MixedBatchPlan, idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm) (failed error) {
	defer func() {
		if r := recover(); r != nil {
			failed = fmt.Errorf("engine: fused execution failed: %v", r)
		}
	}()
	p.FillInputs(xrand.New(batchFillSeed))
	for k, i := range idxs {
		for id, src := range inputMap(inputs, i) {
			if _, ok := algOf[i].Shapes[id]; ok {
				p.SetInput(k, id, src)
			}
		}
	}
	p.Execute()
	return nil
}

// execUnfused executes each query through its own single-instance
// plan, under the shared execution lock.
func (e *Engine) execUnfused(idxs []int, inputs []map[string]*mat.Dense, algOf []*expr.Algorithm, out []Result) {
	e.execMu.RLock()
	defer e.execMu.RUnlock()
	for _, i := range idxs {
		out[i].Output, out[i].Err = execOne(algOf[i], inputMap(inputs, i))
		out[i].Fused = false
	}
}

// execOne compiles and runs one query's selected algorithm on a private
// plan, converting kernel panics into an error.
func execOne(alg *expr.Algorithm, in map[string]*mat.Dense) (o *mat.Dense, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("engine: execution failed: %v", r)
		}
	}()
	p, err := exec.CompilePlan(alg)
	if err != nil {
		return nil, err
	}
	p.FillInputs(xrand.New(batchFillSeed))
	for id, src := range in {
		if _, ok := alg.Shapes[id]; ok {
			p.SetInput(id, src)
		}
	}
	p.Execute()
	res := p.Output()
	cp := mat.New(res.Rows, res.Cols)
	mat.Copy(cp, res)
	return cp, nil
}

// inputMap returns query i's input map, tolerating a short or nil
// inputs slice.
func inputMap(inputs []map[string]*mat.Dense, i int) map[string]*mat.Dense {
	if i < len(inputs) {
		return inputs[i]
	}
	return nil
}

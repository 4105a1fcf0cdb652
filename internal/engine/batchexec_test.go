package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// randomInputs builds a full input map for the algorithm from the rng,
// matching its declared shapes.
func randomInputs(alg *expr.Algorithm, rng *xrand.Rand) map[string]*mat.Dense {
	in := make(map[string]*mat.Dense, len(alg.Inputs))
	for _, id := range alg.Inputs {
		sh := alg.Shapes[id]
		in[id] = mat.NewRandom(sh.Rows, sh.Cols, rng)
	}
	return in
}

// TestQueryBatchExecFusedHomogeneous pins the fused result path for
// identical queries: same expression, same instance, min-flops — the
// bucket executes through one batch plan, every result is marked fused,
// and each output is bitwise identical to evaluating the selected
// algorithm on the same inputs through the single-instance correctness
// path.
func TestQueryBatchExecFusedHomogeneous(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	const n = 4
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}}
	}
	algs, err := e.Algorithms("aatb", expr.Instance{12, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xdead)
	inputs := make([]map[string]*mat.Dense, n)
	for i := range inputs {
		inputs[i] = randomInputs(&algs[0], rng)
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true, Inputs: inputs})
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !r.Fused {
			t.Errorf("query %d not fused", i)
		}
		if r.Output == nil {
			t.Fatalf("query %d: nil output", i)
		}
		var sel *expr.Algorithm
		for j := range algs {
			if algs[j].Index == r.Record.Selected.Index {
				sel = &algs[j]
			}
		}
		want := exec.EvaluateAlgorithm(sel, inputs[i])
		if !mat.Equal(r.Output, want) {
			t.Errorf("query %d: fused output differs from single-instance evaluation", i)
		}
	}
	s := e.Stats()
	if s.FusedQueries != n {
		t.Errorf("fused_queries = %d, want %d", s.FusedQueries, n)
	}
}

// TestQueryBatchExecFusedMixed pins the mixed-shape result path:
// queries of one expression at different shapes within one octave per
// dimension share a bucket, execute through one padded mixed plan, and
// each per-instance output is bitwise identical to its single-instance
// evaluation.
func TestQueryBatchExecFusedMixed(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	insts := []expr.Instance{{12, 16, 8}, {14, 18, 10}, {13, 17, 9}}
	qs := make([]Query, len(insts))
	inputs := make([]map[string]*mat.Dense, len(insts))
	sels := make([][]expr.Algorithm, len(insts))
	rng := xrand.New(0x317ed)
	for i, inst := range insts {
		qs[i] = Query{Expr: "aatb", Instance: inst}
		algs, err := e.Algorithms("aatb", inst)
		if err != nil {
			t.Fatal(err)
		}
		sels[i] = algs
		inputs[i] = randomInputs(&algs[0], rng)
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true, Inputs: inputs})
	sameIdx := true
	for _, r := range res[1:] {
		if r.Err == nil && r.Record.Selected.Index != res[0].Record.Selected.Index {
			sameIdx = false
		}
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if sameIdx && !r.Fused {
			t.Errorf("query %d not fused despite one bucket", i)
		}
		var sel *expr.Algorithm
		for j := range sels[i] {
			if sels[i][j].Index == r.Record.Selected.Index {
				sel = &sels[i][j]
			}
		}
		want := exec.EvaluateAlgorithm(sel, inputs[i])
		if !mat.Equal(r.Output, want) {
			t.Errorf("query %d: mixed fused output differs from single-instance evaluation", i)
		}
	}
	if sameIdx {
		if s := e.Stats(); s.FusedQueries != uint64(len(insts)) {
			t.Errorf("fused_queries = %d, want %d", s.FusedQueries, len(insts))
		}
	}
}

// TestQueryBatchExecDefaultFillDeterministic pins that queries without
// caller inputs are filled from a deterministic stream: two identical
// batches produce bitwise-identical outputs.
func TestQueryBatchExecDefaultFillDeterministic(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	a := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	b := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("query %d: %v / %v", i, a[i].Err, b[i].Err)
		}
		if !mat.Equal(a[i].Output, b[i].Output) {
			t.Errorf("query %d: default-filled outputs differ across runs", i)
		}
	}
}

// TestQueryBatchExecRejectUnregistered pins the Unregistered reject:
// the simulated backend has no batched path, so a fusable-looking
// bucket executes per query and is counted.
func TestQueryBatchExecRejectUnregistered(t *testing.T) {
	e := New(Config{}) // simulated backend
	qs := []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused on an executor without a batched path", i)
		}
		if r.Output == nil {
			t.Errorf("query %d: nil output on the unfused fallback", i)
		}
	}
	s := e.Stats()
	if s.FuseRejected.Unregistered < 2 {
		t.Errorf("fuse_rejected.unregistered = %d, want >= 2", s.FuseRejected.Unregistered)
	}
	if s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0", s.FusedQueries)
	}
}

// TestQueryBatchExecRejectTooBigArena pins the TooBigArena reject: a
// bucket whose instance arenas exceed the fused slab budget executes
// per query and is counted.
func TestQueryBatchExecRejectTooBigArena(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	inst := expr.Instance{512, 512, 4}
	be := e.timer.Exec.(exec.BatchExecutor)
	algs, err := e.Algorithms("aatb", inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range algs {
		if w := be.FuseWidth(&algs[i]); w >= 2 {
			t.Skipf("instance %v unexpectedly inside the fused regime (fuse width %d)", inst, w)
		}
	}
	qs := []Query{
		{Expr: "aatb", Instance: inst},
		{Expr: "aatb", Instance: inst},
	}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("query %d fused outside the fused regime", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.TooBigArena < 2 {
		t.Errorf("fuse_rejected.too_big_arena = %d, want >= 2", s.FuseRejected.TooBigArena)
	}
}

// TestQueryBatchExecRejectHeteroPrepadding drives execBucket directly
// with two instances whose fuse widths are more than the padding gate
// apart: the bucket must execute unfused and count the reject. (End to
// end such pairs rarely share an octave bucket, which is the point of
// octave bucketing; the gate is the second line of defence.)
func TestQueryBatchExecRejectHeteroPrepadding(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	be := e.timer.Exec.(exec.BatchExecutor)
	small, err := e.Algorithms("aatb", expr.Instance{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Algorithms("aatb", expr.Instance{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &small[0], &large[0]
	wa, wb := be.FuseWidth(a), be.FuseWidth(b)
	if wa < 2 || wb < 2 || wa <= heteroPaddingMax*wb {
		t.Skipf("fuse widths %d/%d do not exercise the padding gate", wa, wb)
	}
	out := make([]Result, 2)
	e.execBucket([]int{0, 1}, nil, []*expr.Algorithm{a, b}, out)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if r.Fused {
			t.Errorf("instance %d fused across the padding gate", i)
		}
		if r.Output == nil {
			t.Errorf("instance %d: nil output on the unfused fallback", i)
		}
	}
	if s := e.Stats(); s.FuseRejected.HeteroPrepadding != 2 {
		t.Errorf("fuse_rejected.hetero_prepadding = %d, want 2", s.FuseRejected.HeteroPrepadding)
	}
}

// TestQueryBatchExecFusedFailureFallsBack pins the fused path's failure
// isolation: one query whose input makes the Cholesky factorisation
// fail (a negative-definite R in lstsq's A·Aᵀ+R) fails the whole fused
// chunk, so the chunk re-runs per query — the bad query reports its
// error, and its bucket neighbours still get their results.
func TestQueryBatchExecFusedFailureFallsBack(t *testing.T) {
	e := New(Config{Executor: exec.NewMeasured()})
	inst := expr.Instance{16, 12, 8}
	qs := []Query{
		{Expr: "lstsq", Instance: inst},
		{Expr: "lstsq", Instance: inst},
		{Expr: "lstsq", Instance: inst},
	}
	bad := mat.New(inst[0], inst[0])
	for i := 0; i < bad.Rows; i++ {
		bad.Set(i, i, -1e6)
	}
	inputs := []map[string]*mat.Dense{nil, {"R": bad}, nil}
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true, Inputs: inputs})
	for i, r := range res {
		if r.Fused {
			t.Errorf("query %d marked fused after its chunk failed", i)
		}
		if i == 1 {
			if r.Err == nil {
				t.Errorf("query 1 with a negative-definite R succeeded")
			}
			continue
		}
		if r.Err != nil || r.Output == nil {
			t.Errorf("query %d: err %v, output %v; want a result beside the failing query", i, r.Err, r.Output)
		}
	}
	if s := e.Stats(); s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0", s.FusedQueries)
	}
}

// octaveBatch returns n queries of the expression with every dimension
// drawn from [lo, 2·lo), one power-of-two octave.
func octaveBatch(name string, arity, lo, n int, rng *xrand.Rand) []Query {
	qs := make([]Query, n)
	for i := range qs {
		inst := make(expr.Instance, arity)
		for d := range inst {
			inst[d] = lo + rng.Intn(lo)
		}
		qs[i] = Query{Expr: name, Instance: inst}
	}
	return qs
}

// referenceOutputs recomputes a computed batch per instance, each on its
// own exec.CompilePlan, from the fill stream the engine gave it: a
// bucket (expression, selected algorithm, shape octave) executes in
// chunks of its minimum FuseWidth, a fused chunk's instances share one
// fresh stream in request order, and every unfused item has a fresh
// stream of its own.
func referenceOutputs(e *Engine, qs []Query, res []Result) ([]*mat.Dense, error) {
	be := e.timer.Exec.(exec.BatchExecutor)
	algOf := make([]*expr.Algorithm, len(qs))
	buckets := map[string][]int{}
	var order []string
	for i, q := range qs {
		algs, err := e.Algorithms(q.Expr, q.Instance)
		if err != nil {
			return nil, err
		}
		for j := range algs {
			if algs[j].Index == res[i].Record.Selected.Index {
				algOf[i] = &algs[j]
			}
		}
		key := res[i].Record.Expr + "#" + strconv.Itoa(algOf[i].Index) + "#" + shapeOctaves(q.Instance)
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], i)
	}
	want := make([]*mat.Dense, len(qs))
	run := func(chunk []int) error {
		rng := xrand.New(batchFillSeed)
		for _, i := range chunk {
			p, err := exec.CompilePlan(algOf[i])
			if err != nil {
				return err
			}
			p.FillInputs(rng)
			p.Execute()
			want[i] = p.Output()
		}
		return nil
	}
	for _, key := range order {
		idxs := buckets[key]
		width := 0
		for _, i := range idxs {
			if w := be.FuseWidth(algOf[i]); width == 0 || w < width {
				width = w
			}
		}
		width = max(width, 1)
		for lo := 0; lo < len(idxs); lo += width {
			chunk := idxs[lo:min(lo+width, len(idxs))]
			shared := len(chunk) >= 2
			for _, i := range chunk {
				shared = shared && res[i].Fused
			}
			if shared {
				if err := run(chunk); err != nil {
					return nil, err
				}
				continue
			}
			for _, i := range chunk {
				if err := run([]int{i}); err != nil {
					return nil, err
				}
			}
		}
	}
	return want, nil
}

// TestQueryBatchExecChunksFitSlab pins the cache-sized chunk: a
// 64-query computed batch of aatb instances in [64,128)³ — megabytes of
// arena per instance group — executes through fused plans whose arenas
// each fit the 4 MiB slab budget, and every output still equals
// per-instance execution on the same fill stream.
func TestQueryBatchExecChunksFitSlab(t *testing.T) {
	const slabFloats = (4 << 20) / 8 // the exec slab budget
	e := New(Config{Executor: exec.NewMeasured()})
	plans := 0
	e.onFusedPlan = func(p *exec.MixedBatchPlan) {
		plans++
		if p.ArenaLen() > slabFloats {
			t.Errorf("fused plan of %d instances has a %d-float arena, over the %d-float slab", p.Count(), p.ArenaLen(), slabFloats)
		}
	}
	qs := octaveBatch("aatb", 3, 64, 64, xrand.New(0xc4a))
	res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if plans == 0 {
		t.Fatal("no fused plan was compiled")
	}
	want, err := referenceOutputs(e, qs, res)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !mat.Equal(r.Output, want[i]) {
			t.Errorf("query %d (fused %v): output differs from per-instance execution", i, r.Fused)
		}
	}
}

// TestQueryBatchExecConcurrentComputeAndOracle drives computed batches
// from four goroutines beside a stream of oracle queries. Computes hold
// the execution lock shared and measurements exclusively: inside every
// timing repetition the lock cannot be taken shared, and every computed
// output equals per-instance execution on the same fill stream.
func TestQueryBatchExecConcurrentComputeAndOracle(t *testing.T) {
	me := exec.NewMeasured()
	me.FlushBytes = 1 << 20
	var e *Engine
	var shared atomic.Int64
	ce := countingExecutor{Measured: me, reps: new(atomic.Int64), probe: func() {
		if e.execMu.TryRLock() {
			e.execMu.RUnlock()
			shared.Add(1)
		}
	}}
	e = New(Config{Executor: ce, Reps: 2})
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(uint64(0xc0c + w))
			for r := range rounds {
				qs := octaveBatch("aatb", 3, 16, 12, rng)
				if r%2 == 1 {
					qs = octaveBatch("gls", 4, 8, 12, rng)
				}
				res := e.Do(context.Background(), Request{Queries: qs, Compute: true})
				for i, x := range res {
					if x.Err != nil {
						errs <- fmt.Errorf("worker %d round %d query %d: %v", w, r, i, x.Err)
						return
					}
				}
				want, err := referenceOutputs(e, qs, res)
				if err != nil {
					errs <- err
					return
				}
				for i, x := range res {
					if !mat.Equal(x.Output, want[i]) {
						errs <- fmt.Errorf("worker %d round %d query %d (fused %v): output differs from per-instance execution", w, r, i, x.Fused)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(0x0ac1e)
		for i := range 6 {
			q := Query{Expr: "aatb", Instance: expr.Instance{8 + rng.Intn(16), 8 + rng.Intn(16), 8 + rng.Intn(16)}, Strategy: "oracle"}
			if res := e.Do(context.Background(), Request{Queries: []Query{q}}); res[0].Err != nil {
				errs <- fmt.Errorf("oracle query %d: %v", i, res[0].Err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ce.reps.Load() == 0 {
		t.Fatal("no timing repetition ran")
	}
	if n := shared.Load(); n != 0 {
		t.Errorf("%d of %d timing repetitions ran with the execution lock shareable, want exclusive", n, ce.reps.Load())
	}
	if e.Stats().FusedQueries == 0 {
		t.Error("no computed query was fused")
	}
}

package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lamb/internal/exec"
	"lamb/internal/expr"
)

// TestQueryBatchCoalescesDuplicates pins the within-batch dedup:
// identical (expression, instance, strategy) queries in one batch share
// one record — the duplicates never enter the pipeline, but still count
// as answered queries.
func TestQueryBatchCoalescesDuplicates(t *testing.T) {
	e := New(Config{})
	qa := Query{Expr: "aatb", Instance: expr.Instance{16, 8, 8}}
	qb := Query{Expr: "aatb", Instance: expr.Instance{32, 8, 8}}
	qc := Query{Expr: "chain", Instance: expr.Instance{8, 8, 8, 8, 8}}
	res := e.Do(context.Background(), Request{Queries: []Query{qa, qb, qa, qa, qb, qc}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	// Duplicates share the representative's record, pointer-identically.
	if res[2].Record != res[0].Record || res[3].Record != res[0].Record {
		t.Error("duplicate aatb queries did not share the representative's record")
	}
	if res[4].Record != res[1].Record {
		t.Error("duplicate query of the second instance did not share its record")
	}
	if res[5].Record == res[0].Record || res[1].Record == res[0].Record {
		t.Error("distinct queries improperly shared a record")
	}
	s := e.Stats()
	if s.Coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", s.Coalesced)
	}
	if s.Queries != 6 {
		t.Errorf("queries = %d, want 6 (coalesced queries still count)", s.Queries)
	}
	// Differing strategies must NOT coalesce.
	qo := qa
	qo.Strategy = "min-flops" // explicit default == implicit default: coalesces
	res = e.Do(context.Background(), Request{Queries: []Query{qa, qo}})
	if res[1].Record != res[0].Record {
		t.Error("explicit default strategy did not coalesce with implicit")
	}
}

// countingExecutor is the measured backend with every per-instance
// timing repetition counted and delayed by a fixed wall-clock amount.
// Embedding *exec.Measured keeps its fused-regime gate (FuseWidth), so
// the engine sees a batch-capable executor. probe, when set, runs inside
// every repetition.
type countingExecutor struct {
	*exec.Measured
	delay time.Duration
	reps  *atomic.Int64
	probe func()
}

func (c countingExecutor) TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64 {
	c.reps.Add(1)
	if c.probe != nil {
		c.probe()
	}
	time.Sleep(c.delay)
	return c.Measured.TimeAlgorithm(alg, rep)
}

// TestQueryBatchFusedMeasurement pins that batch queries time with the
// paper's per-instance protocol: a batch of identical oracle queries on
// a batch-capable executor in the small-instance regime coalesces to
// one representative, which measures every candidate cold, one
// instance per repetition — the executor sees exactly algorithms × reps
// per-instance repetitions and the query is not counted as fused. The
// record is an ordinary oracle answer with the per-instance path's
// candidate set.
func TestQueryBatchFusedMeasurement(t *testing.T) {
	const reps = 2
	me := exec.NewMeasured()
	me.FlushBytes = 1 << 20
	ce := countingExecutor{Measured: me, reps: new(atomic.Int64)}
	e := New(Config{Executor: ce, Reps: reps})
	q := Query{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"}
	algs, err := e.Algorithms(q.Expr, q.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if me.FuseWidth(&algs[0]) < 2 {
		t.Fatal("test instance is outside the fused regime")
	}
	res := e.Do(context.Background(), Request{Queries: []Query{q, q, q}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	rec := res[0].Record
	if rec.Strategy != "oracle" || rec.Degraded != "" {
		t.Fatalf("batch record %+v, want an undegraded oracle answer", rec)
	}
	if rec.NumAlgorithms != 5 || len(rec.Candidates) != 5 {
		t.Fatalf("record %+v", rec)
	}
	if got, want := ce.reps.Load(), int64(5*reps); got != want {
		t.Errorf("executor saw %d per-instance repetitions, want %d (5 algorithms × %d reps)", got, want, reps)
	}
	s := e.Stats()
	if s.FusedQueries != 0 {
		t.Errorf("fused_queries = %d, want 0 (timed answers never fuse)", s.FusedQueries)
	}
	if s.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", s.Coalesced)
	}
	// The batch record's candidates agree with the single-query path.
	direct, err := doOne(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Candidates, rec.Candidates) {
		t.Errorf("batch candidates differ from single-query:\n%+v\n%+v", rec.Candidates, direct.Candidates)
	}
}

// TestQueryBatchFusedDeadlineDegrades pins that the degradation ladder
// holds on the batched path: batch oracle queries whose deadline
// expires mid-measurement answer min-flops with the degradation
// stamped, exactly like a single query.
func TestQueryBatchFusedDeadlineDegrades(t *testing.T) {
	me := exec.NewMeasured()
	me.FlushBytes = 1 << 20
	e := New(Config{Executor: countingExecutor{Measured: me, delay: 30 * time.Millisecond, reps: new(atomic.Int64)}, Reps: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := e.Do(ctx, Request{Queries: []Query{
		{Expr: "aatb", Instance: expr.Instance{12, 16, 8}, Strategy: "oracle"},
		{Expr: "aatb", Instance: expr.Instance{16, 12, 8}, Strategy: "oracle"},
	}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: deadline mid-measurement should degrade, got error %v", i, r.Err)
		}
		rec := r.Record
		if rec.Strategy != "min-flops" || rec.Requested != "oracle" || rec.Degraded != DegradedDeadline {
			t.Fatalf("query %d: degraded record not stamped: %+v", i, rec)
		}
	}
	if s := e.Stats(); s.DegradedQueries != 2 || s.FusedQueries != 0 {
		t.Errorf("degraded_queries = %d, fused_queries = %d, want 2 and 0", s.DegradedQueries, s.FusedQueries)
	}
}

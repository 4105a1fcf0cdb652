package main

import (
	"context"
	"testing"

	"lamb/internal/engine"
	"lamb/internal/exec"
)

func TestCheckRecordAcceptsServedAnswersAndRejectsTampering(t *testing.T) {
	x := &expressions{}
	eng := engine.New(engine.Config{})
	q := engine.Query{Expr: "gls", Instance: []int{120, 80, 200, 60}}
	res := eng.Do(context.Background(), engine.Request{Queries: []engine.Query{q}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	rec := *res[0].Record
	if err := checkRecord(x, q, &rec); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	tamper := map[string]func(r *engine.Record){
		"non-minimal pick": func(r *engine.Record) {
			for _, c := range r.Candidates {
				if c.Flops > r.Selected.Flops {
					r.Selected = c
					return
				}
			}
		},
		"p_best sum":      func(r *engine.Record) { r.Ranking[0].PBest += 1e-6 },
		"missing ranking": func(r *engine.Record) { r.Ranking = r.Ranking[1:] },
		"degraded":        func(r *engine.Record) { r.Degraded = "deadline" },
		"other instance":  func(r *engine.Record) { r.Instance = []int{1, 2, 3, 4} },
	}
	for name, f := range tamper {
		r := rec
		r.Ranking = append([]engine.RankEntry(nil), rec.Ranking...)
		f(&r)
		if err := checkRecord(x, q, &r); err == nil {
			t.Errorf("%s: tampered record accepted", name)
		}
	}
}

// TestCheckComputedMatchesEngineBatches computes batches through the
// engine's fused path and checks the per-instance reference reproduces
// every checksum bitwise, and catches a changed one.
func TestCheckComputedMatchesEngineBatches(t *testing.T) {
	x := &expressions{}
	w, err := newWorkload("batch-compute", 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Executor: exec.NewMeasured()})
	m := exec.NewMeasured()
	for i := 0; i < 2; i++ {
		req := w.Request(i)
		req.Queries = req.Queries[:24]
		res := eng.Do(context.Background(), engine.Request{Queries: req.Queries, Compute: true})
		items := make([]computedItem, len(res))
		fused := 0
		for k, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Fused {
				fused++
			}
			items[k] = computedItem{Query: req.Queries[k], Alg: r.Record.Selected.Index, Fused: r.Fused,
				Rows: r.Output.Rows, Cols: r.Output.Cols, Checksum: checksum(r.Output)}
		}
		if fused == 0 {
			t.Fatalf("batch %d: no item took the fused path", i)
		}
		if wrong, err := checkComputed(x, items, m); err != nil || wrong != 0 {
			t.Fatalf("batch %d: %d of %d checksums differ (%v)", i, wrong, len(items), err)
		}
		items[len(items)-1].Checksum += 1e-9
		if wrong, _ := checkComputed(x, items, m); wrong != 1 {
			t.Fatalf("batch %d: changed checksum gave %d mismatches, want 1", i, wrong)
		}
	}
}

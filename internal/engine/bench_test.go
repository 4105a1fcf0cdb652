package engine

import (
	"context"
	"testing"

	"lamb/internal/exec"
	"lamb/internal/expr"
	"lamb/internal/xrand"
)

// BenchmarkDoMinFlopsCached times one min-flops Engine.Do on the sim
// backend with a hot bind cache: after a warm-up call at the same
// instance, each iteration pays the lookup, the strategy, the
// posterior, the ranking and the record build, but no enumeration.
func BenchmarkDoMinFlopsCached(b *testing.B) {
	cases := []struct {
		expr string
		inst expr.Instance
	}{
		{"aatb", expr.Instance{100, 200, 300}},
		{"chain", expr.Instance{300, 40, 700, 90, 500}},
		{"gls", expr.Instance{300, 200, 150, 90}},
	}
	for _, c := range cases {
		b.Run(c.expr, func(b *testing.B) {
			e := New(Config{})
			req := Request{Queries: []Query{{Expr: c.expr, Instance: c.inst, Strategy: "min-flops"}}}
			ctx := context.Background()
			if res := e.Do(ctx, req); res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
			b.ReportAllocs()
			for b.Loop() {
				e.Do(ctx, req)
			}
		})
	}
}

// BenchmarkDoBatchCompute times one 64-query computed Engine.Do on the
// measured backend — the batch-compute traffic: aatb with every
// dimension in [64,128), and gls with every dimension in [32,64), both
// min-flops. Selection is cached after the warm-up call, so each
// iteration is dominated by fused execution. The parallel variant runs
// one batch per goroutine, so batches of different callers share the
// execution lock.
func BenchmarkDoBatchCompute(b *testing.B) {
	cases := []struct {
		expr       string
		arity, low int
	}{
		{"aatb", 3, 64},
		{"gls", 4, 32},
	}
	for _, c := range cases {
		qs := octaveBatch(c.expr, c.arity, c.low, 64, xrand.New(0xbc))
		req := Request{Queries: qs, Compute: true}
		for _, parallel := range []bool{false, true} {
			name := c.expr + "/serial"
			if parallel {
				name = c.expr + "/parallel"
			}
			b.Run(name, func(b *testing.B) {
				e := New(Config{Executor: exec.NewMeasured()})
				ctx := context.Background()
				for _, r := range e.Do(ctx, req) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				b.ReportAllocs()
				if !parallel {
					for b.Loop() {
						e.Do(ctx, req)
					}
					return
				}
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						e.Do(ctx, req)
					}
				})
			})
		}
	}
}

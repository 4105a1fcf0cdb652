package engine

import (
	"context"
	"testing"

	"lamb/internal/expr"
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

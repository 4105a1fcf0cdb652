package engine

// Do is the engine's single entry point: one request struct selects the
// per-instance path, the batched path, or batched execution, and the
// deadline is whatever the caller's context carries.

import (
	"context"

	"lamb/internal/mat"
)

// Request describes one Do call: which queries to answer and how.
type Request struct {
	// Queries are the selection requests. A single query takes the
	// per-instance path; two or more take the batched path — within-batch
	// coalescing and (with Compute) fused result execution. Both answer
	// with the same records: timed strategies measure every instance
	// with the per-instance cold-cache protocol.
	Queries []Query
	// Strategy, when non-empty, fills in any query that names no strategy
	// of its own. Queries that still name none after that use
	// DefaultStrategy, the paper's min-FLOPs discriminant.
	Strategy string
	// Compute additionally executes each query's selected algorithm and
	// returns its output, fusing same-bucket executions into shared batch
	// plans where the regime allows.
	Compute bool
	// Inputs supplies per-query input operands by ID for Compute
	// (Inputs[i] belongs to Queries[i]; short or nil is fine — missing
	// operands are filled from a deterministic stream). Ignored without
	// Compute.
	Inputs []map[string]*mat.Dense
}

// Result is one query's answer: its record or error, and — for Compute
// requests — the computed output.
type Result struct {
	Record *Record
	// Output is the selected algorithm's result (caller-owned copy);
	// nil when Err is set or without Compute.
	Output *mat.Dense
	Err    error
	// Fused reports whether this result was computed through a fused
	// batch plan shared with other queries of the same bucket.
	Fused bool
}

// Do answers the request under the caller's context and returns one
// Result per query, in request order. The context's deadline governs
// everything downstream: timed strategies degrade to a FLOPs-only
// answer when it expires mid-measurement, and an already-expired
// context fails the queries immediately.
func (e *Engine) Do(ctx context.Context, req Request) []Result {
	qs := req.Queries
	if req.Strategy != "" {
		qs = make([]Query, len(req.Queries))
		copy(qs, req.Queries)
		for i := range qs {
			if qs[i].Strategy == "" {
				qs[i].Strategy = req.Strategy
			}
		}
	}
	switch {
	case req.Compute:
		return e.queryBatchExecCtx(ctx, qs, req.Inputs)
	case len(qs) == 1:
		rec, err := e.queryCtx(ctx, qs[0])
		return []Result{{Record: rec, Err: err}}
	default:
		return e.queryBatchCtx(ctx, qs)
	}
}

package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"lamb/internal/engine"
	"lamb/internal/expr"
	"lamb/internal/httpjson"
)

// Handler assembles the route table. The router's HTTP surface mirrors
// the serve API — a client pointed at a router instead of a single
// backend sees the same /api/v1 endpoints, the same record schema and
// the same error replies (both use internal/httpjson) — with the
// router's own /healthz and /api/v1/stats.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /api/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, rt.Stats())
	})
	mux.HandleFunc("GET /api/v1/expressions", rt.handleExpressions)
	mux.HandleFunc("POST /api/v1/query", rt.handleQuery)
	mux.HandleFunc("POST /api/v1/batch", rt.handleBatch)
	mux.HandleFunc("POST /api/v1/feedback", rt.handleFeedback)
	return mux
}

// handleHealthz: the router is live while it answers at all, and ready
// while it can produce selection records — at least one backend up, or
// the local fallback engine armed.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, b := range rt.backends {
		if b.up.Load() {
			up++
		}
	}
	ready := up > 0 || rt.cfg.Local != nil
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	httpjson.Write(w, status, map[string]any{
		"ok": true, "ready": ready, "backends": len(rt.backends), "up": up,
	})
}

// queryBody is the lenient decode of a query request: just enough to
// compute the shard key and the deadline. The original bytes are
// relayed verbatim, so fields the router doesn't know still reach the
// backend (which enforces its own strict schema).
type queryBody struct {
	Expr      string `json:"expr"`
	Instance  []int  `json:"instance"`
	Strategy  string `json:"strategy"`
	TimeoutMs int    `json:"timeout_ms"`
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, q, ok := rt.readQuery(w, r)
	if !ok {
		return
	}
	ctx, cancel := httpjson.Context(r, q.TimeoutMs, 0)
	defer cancel()
	cands := rt.ring.candidates(shardKey(q.Expr, q.Instance))
	// Only timed strategies are worth doubled backend work: an oracle
	// query's latency is backend-side measurement, the work a straggler
	// stretches into the tail; every other answer costs microseconds.
	hedge := q.Strategy == "oracle"
	res := rt.forward(ctx, cands, "/api/v1/query", body, hedge)
	if res.err == nil {
		relay(w, res)
		return
	}
	rec, err := rt.localAnswer(ctx, q)
	switch {
	case errors.Is(err, errNoBackend):
		w.Header().Set("Retry-After", "1")
		httpjson.Error(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpjson.EngineError(w, err)
	default:
		httpjson.Write(w, http.StatusOK, rec)
	}
}

// localAnswer is the bottom of the ladder: no backend answered, so the
// local profile-less engine selects by min-flops — the paper's
// always-available discriminant — and the record says so. Without a
// local engine it fails with errNoBackend.
func (rt *Router) localAnswer(ctx context.Context, q queryBody) (*engine.Record, error) {
	if rt.cfg.Local == nil {
		return nil, errNoBackend
	}
	res := rt.cfg.Local.Do(ctx, engine.Request{Queries: []engine.Query{
		{Expr: q.Expr, Instance: expr.Instance(q.Instance), Strategy: "min-flops"},
	}})
	rec, err := res[0].Record, res[0].Err
	if err != nil {
		return nil, err
	}
	if q.Strategy != "" && q.Strategy != "min-flops" {
		rec.Requested = q.Strategy
	}
	rec.Degraded = DegradedNoBackend
	rt.degraded.Add(1)
	return rec, nil
}

// batchItem renders one serve-schema batch item: the record, or the
// error when err is set.
func batchItem(rec *engine.Record, err error) json.RawMessage {
	var v any = rec
	if err != nil {
		v = httpjson.ErrorBody{Error: err.Error()}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return batchItem(nil, err)
	}
	return out
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := httpjson.ReadBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Queries   []json.RawMessage `json:"queries"`
		TimeoutMs int               `json:"timeout_ms"`
		// Compute asks the backends to execute each selected algorithm
		// and attach a result block; it must ride along on every
		// sub-batch.
		Compute bool `json:"compute"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpjson.BadBody(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if !httpjson.CheckBatch(w, len(req.Queries)) {
		return
	}
	ctx, cancel := httpjson.Context(r, req.TimeoutMs, 0)
	defer cancel()

	// Split the batch by shard owner — each sub-batch rides the owning
	// backend's fused execution path — then reassemble in order. Each
	// group writes only its own indices of results; the entries still
	// nil afterwards (no owner up, or the group's forward failed) are
	// answered by the local engine.
	type group struct {
		cands   []string
		indices []int
		raws    []json.RawMessage
	}
	groups := make(map[string]*group)
	qs := make([]queryBody, len(req.Queries))
	results := make([]json.RawMessage, len(req.Queries))
	for i, raw := range req.Queries {
		if err := json.Unmarshal(raw, &qs[i]); err != nil {
			results[i] = batchItem(nil, err)
			continue
		}
		cands := rt.ring.candidates(shardKey(qs[i].Expr, qs[i].Instance))
		owner := ""
		for _, c := range cands {
			if b := rt.byURL[c]; b.up.Load() {
				owner = c
				break
			}
		}
		if owner == "" {
			continue
		}
		g := groups[owner]
		if g == nil {
			g = &group{cands: cands}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
		g.raws = append(g.raws, raw)
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			payload, err := json.Marshal(map[string]any{
				"queries": g.raws, "timeout_ms": req.TimeoutMs, "compute": req.Compute,
			})
			if err != nil {
				for _, i := range g.indices {
					results[i] = batchItem(nil, err)
				}
				return
			}
			res := rt.forward(ctx, g.cands, "/api/v1/batch", payload, false)
			var sub struct {
				Results []json.RawMessage `json:"results"`
			}
			if res.err == nil && res.status == http.StatusOK &&
				json.Unmarshal(res.body, &sub) == nil && len(sub.Results) == len(g.indices) {
				for k, i := range g.indices {
					results[i] = sub.Results[k]
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range results {
		if results[i] == nil {
			results[i] = batchItem(rt.localAnswer(ctx, qs[i]))
		}
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"results": results})
}

// handleFeedback routes a measured outcome to the shard that owns the
// instance — where the adaptive evidence for that region lives. With
// every backend down the feedback is refused (503): accepting it into a
// local store nothing ever queries would silently discard it.
func (rt *Router) handleFeedback(w http.ResponseWriter, r *http.Request) {
	body, q, ok := rt.readQuery(w, r)
	if !ok {
		return
	}
	res := rt.forward(r.Context(), rt.ring.candidates(shardKey(q.Expr, q.Instance)), "/api/v1/feedback", body, false)
	if res.err != nil {
		w.Header().Set("Retry-After", "1")
		httpjson.Error(w, http.StatusServiceUnavailable, fmt.Errorf("feedback not stored: %w", res.err))
		return
	}
	relay(w, res)
}

// handleExpressions asks any up backend, falling back to the local
// engine's registry — the one endpoint where any replica's answer is as
// good as the owner's.
func (rt *Router) handleExpressions(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
	defer cancel()
	for _, b := range rt.backends {
		if !b.up.Load() {
			continue
		}
		if body, err := rt.get(ctx, b, "/api/v1/expressions"); err == nil {
			relay(w, attemptResult{status: http.StatusOK, body: body})
			return
		}
	}
	if rt.cfg.Local != nil {
		httpjson.Write(w, http.StatusOK, rt.cfg.Local.ListExpressions())
		return
	}
	w.Header().Set("Retry-After", "1")
	httpjson.Error(w, http.StatusServiceUnavailable, errNoBackend)
}

// readQuery reads the capped body and leniently extracts the shard-key
// fields, replying 400 on garbage.
func (rt *Router) readQuery(w http.ResponseWriter, r *http.Request) ([]byte, queryBody, bool) {
	body, ok := httpjson.ReadBody(w, r)
	if !ok {
		return nil, queryBody{}, false
	}
	var q queryBody
	if err := json.Unmarshal(body, &q); err != nil {
		httpjson.BadBody(w, fmt.Errorf("bad request body: %w", err))
		return nil, queryBody{}, false
	}
	return body, q, true
}

// relay writes a backend response through unchanged.
func relay(w http.ResponseWriter, res attemptResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lamb/internal/engine"
)

// newClient returns an HTTP client keeping one connection per closed-loop
// client alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends body to url and returns the status (0 on a transport
// error) and the response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// batchResponse is the body of a served batch.
type batchResponse struct {
	Results []struct {
		engine.Record
		Result *struct {
			Rows     int     `json:"rows"`
			Cols     int     `json:"cols"`
			Fused    bool    `json:"fused"`
			Checksum float64 `json:"checksum"`
		} `json:"result"`
		Error string `json:"error"`
	} `json:"results"`
}

// sample is one answered query or batch request: when it completed
// (seconds since the phase started), its latency in seconds, and how
// many queries it answered correctly. Feedback writes are not sampled.
type sample struct {
	Done, Latency float64
	OK            int
}

// phase is what one closed-loop phase observed.
type phase struct {
	Elapsed time.Duration
	// Next is the id of the first request the phase did not send.
	Next    int
	Samples []sample
	// Verified counts answered queries that passed every check (batch
	// items count one each).
	Verified  int
	Tally     tally
	Requests  int
	RespBytes int64
	Responses int
	// Computed holds every computed batch, checked after the phase.
	Computed [][]computedItem
	// RTT maps request id to its round-trip time (traced phases only).
	RTT      map[int]time.Duration
	Problems []string
}

func (p *phase) merge(o *phase) {
	p.Samples = append(p.Samples, o.Samples...)
	p.Verified += o.Verified
	p.Requests += o.Requests
	p.Tally.add(o.Tally)
	p.RespBytes += o.RespBytes
	p.Responses += o.Responses
	p.Computed = append(p.Computed, o.Computed...)
	for id, d := range o.RTT {
		p.RTT[id] = d
	}
	if len(p.Problems) < 5 {
		p.Problems = append(p.Problems, o.Problems...)
	}
}

func (p *phase) problem(format string, args ...any) {
	if len(p.Problems) < 5 {
		p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
	}
}

// runPhase drives w's request sequence from index first against front
// with w.Clients closed-loop clients until d has passed: each client
// sends its next request only after the previous one was answered.
// Requests are numbered globally, so the sequence is the same whichever
// client sends which request. Every answer is verified; with tr set,
// every request gets a span and its round-trip time is kept.
func runPhase(ctx context.Context, w *workload, x *expressions, front string, first int, d time.Duration, tr *tracer) *phase {
	client := newClient(w.Clients)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*phase, w.Clients)
	var wg sync.WaitGroup
	for c := range parts {
		p := &phase{RTT: map[int]time.Duration{}}
		parts[c] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				req := w.Request(int(next.Add(1) - 1))
				span := tr.begin("http."+req.Path[len("/api/v1/"):], req.ID, 0)
				t0 := time.Now()
				code, body := post(ctx, client, front+req.Path, req.Body)
				rtt := time.Since(t0)
				tr.end(span)
				if tr != nil {
					p.RTT[req.ID] = rtt
				}
				ok := p.observe(x, req, code, body)
				if req.Kind != kindFeedback {
					p.Samples = append(p.Samples, sample{Done: time.Since(start).Seconds(), Latency: rtt.Seconds(), OK: ok})
				}
			}
		}()
	}
	wg.Wait()
	out := &phase{Elapsed: time.Since(start), Next: int(next.Load()), RTT: map[int]time.Duration{}}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// observe verifies one answered request, records its outcome, and
// returns how many of its queries were answered correctly.
func (p *phase) observe(x *expressions, req request, code int, body []byte) int {
	n := len(req.Queries)
	if req.Kind == kindFeedback {
		n = 1
	}
	p.Requests++
	p.Tally.status(code, n)
	if code != http.StatusOK {
		p.problem("%s request %d: status %d: %.200s", req.Path, req.ID, code, body)
		return 0
	}
	p.RespBytes += int64(len(body))
	p.Responses++
	switch req.Kind {
	case kindQuery:
		var rec engine.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			p.wrong(req, err)
			return 0
		}
		if err := checkRecord(x, req.Queries[0], &rec); err != nil {
			p.wrong(req, err)
			return 0
		}
		p.Verified++
		return 1
	case kindBatch:
		var resp batchResponse
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != n {
			p.Tally.Wrong += n
			p.problem("batch %d: undecodable or %d results for %d queries", req.ID, len(resp.Results), n)
			return 0
		}
		items := make([]computedItem, 0, n)
		for k, r := range resp.Results {
			q := req.Queries[k]
			if r.Error != "" || r.Result == nil {
				p.wrong(req, fmt.Errorf("item %d: error %q, result block present: %t", k, r.Error, r.Result != nil))
				continue
			}
			if err := checkRecord(x, q, &r.Record); err != nil {
				p.wrong(req, err)
				continue
			}
			items = append(items, computedItem{Query: q, Alg: r.Selected.Index, Fused: r.Result.Fused,
				Rows: r.Result.Rows, Cols: r.Result.Cols, Checksum: r.Result.Checksum})
		}
		if len(items) == n {
			// Checksums are checked after the phase; until then the
			// items count as verified.
			p.Computed = append(p.Computed, items)
			p.Verified += n
			return n
		}
	}
	return 0
}

func (p *phase) wrong(req request, err error) {
	p.Tally.Wrong++
	p.problem("request %d: wrong answer: %v", req.ID, err)
}

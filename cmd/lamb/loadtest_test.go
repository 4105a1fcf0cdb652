package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"lamb/internal/engine"
	"lamb/internal/exec"
)

// TestLoadtestAgainstServeBatch drives the loadtest generator against an
// in-process serve handler in batch mode and checks the traffic actually
// flowed: queries answered, duplicates coalesced within batches, and no
// request errors (cmdLoadtest fails on any).
func TestLoadtestAgainstServeBatch(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "200ms", "-concurrency", "2",
		"-batch", "8", "-spread", "3", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest: %v", err)
	}
	s := eng.Stats()
	if s.Queries == 0 {
		t.Error("no queries reached the engine")
	}
	// Batches of 8 over 3 distinct instances coalesce 5 duplicates each.
	if s.Coalesced == 0 {
		t.Error("batched duplicates were not coalesced")
	}
}

// TestLoadtestAgainstServeQuery covers the single-query mode and the
// unreachable-target error path.
func TestLoadtestAgainstServeQuery(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "100ms", "-concurrency", "1",
		"-expr", "chain", "-instance", "8,8,8,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest: %v", err)
	}
	if eng.Stats().Queries == 0 {
		t.Error("no queries reached the engine")
	}
	srv.Close()
	if err := cmdLoadtest([]string{"-target", srv.URL, "-duration", "50ms"}); err == nil {
		t.Error("unreachable target did not fail")
	}
}

// TestLoadtestOpenLoop runs the -rate open-loop mode (both arrival
// processes) against an in-process serve and checks arrivals were
// scheduled and answered, plus the flag validation paths.
func TestLoadtestOpenLoop(t *testing.T) {
	eng := engine.New(engine.Config{})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	for _, arrivals := range []string{"uniform", "poisson"} {
		err := cmdLoadtest([]string{
			"-target", srv.URL, "-duration", "250ms", "-rate", "200",
			"-arrivals", arrivals, "-expr", "aatb", "-instance", "16,8,8",
		})
		if err != nil {
			t.Fatalf("open loop (%s arrivals): %v", arrivals, err)
		}
	}
	if eng.Stats().Queries == 0 {
		t.Error("no queries reached the engine")
	}
	for _, bad := range [][]string{
		{"-target", srv.URL, "-rate", "-1"},
		{"-target", srv.URL, "-rate", "100", "-max-outstanding", "0"},
		{"-target", srv.URL, "-arrivals", "bursty"},
	} {
		if err := cmdLoadtest(bad); err == nil {
			t.Errorf("args %v did not fail", bad)
		}
	}
}

// TestLoadtestHonorsRetryAfter scripts a server that sheds each client's
// first attempt with a 503 + Retry-After: 0 and serves the retry. With
// the retry budget on, every request must eventually succeed (cmdLoadtest
// errors otherwise) — the generator slept as told instead of counting
// the shed as terminal.
func TestLoadtestHonorsRetryAfter(t *testing.T) {
	eng := engine.New(engine.Config{})
	mux := serveMux(eng)
	var hits atomic.Uint64
	var sheds atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/query" && hits.Add(1)%2 == 1 {
			sheds.Add(1)
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "150ms", "-concurrency", "1",
		"-retry-503", "2", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest with Retry-After shedding: %v", err)
	}
	if sheds.Load() == 0 {
		t.Fatal("server never shed — test exercised nothing")
	}
	if eng.Stats().Queries == 0 {
		t.Error("no retried queries reached the engine")
	}
}

// TestLoadtestBatchMix drives -batch-mix against a measured-backend serve:
// every batch carries compute-mode queries with dimensions sampled inside
// the base instance's octave, so the run must land queries on the fused
// execution path (FusedQueries counts result executions too). Also covers
// the flag validation: -batch-mix without -batch > 1 is an error.
func TestLoadtestBatchMix(t *testing.T) {
	eng := engine.New(engine.Config{Executor: exec.NewMeasured()})
	srv := httptest.NewServer(serveMux(eng))
	defer srv.Close()
	err := cmdLoadtest([]string{
		"-target", srv.URL, "-duration", "300ms", "-concurrency", "2",
		"-batch", "6", "-batch-mix", "-spread", "4", "-expr", "aatb", "-instance", "16,8,8",
	})
	if err != nil {
		t.Fatalf("cmdLoadtest -batch-mix: %v", err)
	}
	s := eng.Stats()
	if s.Queries == 0 {
		t.Fatal("no queries reached the engine")
	}
	if s.FusedQueries == 0 {
		t.Error("batch-mix traffic never hit the fused execution path")
	}
	if err := cmdLoadtest([]string{"-target", srv.URL, "-batch-mix"}); err == nil {
		t.Error("-batch-mix without -batch > 1 did not fail")
	}
}

// TestLoadtestAgainstRouter points the generator at a router over one
// serve backend: the router's stats have no engine layers, so the
// report must show the router's own counter deltas instead of an
// all-zero engine table.
func TestLoadtestAgainstRouter(t *testing.T) {
	backend := httptest.NewServer(serveMux(engine.New(engine.Config{})))
	defer backend.Close()
	rt := chaosRouter(t, backend.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	out := stdoutCapture(t)
	err := cmdLoadtest([]string{
		"-target", front.URL, "-duration", "150ms", "-concurrency", "1",
		"-expr", "aatb", "-instance", "16,8,8",
	})
	report := string(out())
	if err != nil {
		t.Fatalf("cmdLoadtest: %v\n%s", err, report)
	}
	forwards := rt.Stats().Forwards
	if forwards == 0 {
		t.Fatal("no queries were routed")
	}
	if strings.Contains(report, "engine layer") {
		t.Errorf("router target reported an engine table:\n%s", report)
	}
	for _, want := range []string{
		fmt.Sprintf("forwards          %d\n", forwards),
		"retries           0\n",
		"hedged            0\n",
		"degraded_queries  0\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

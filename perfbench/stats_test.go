package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {3, 0.5}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTallyCountsEveryFailureAgainstAttempts(t *testing.T) {
	var tl tally
	tl.status(200, 1)
	tl.status(0, 1)    // transport error
	tl.status(503, 64) // a shed batch fails all its items
	tl.status(500, 1)
	tl.status(400, 1)
	tl.Wrong++
	if tl.Attempted != 68 || tl.Transport != 1 || tl.Shed != 64 || tl.Non200 != 2 {
		t.Fatalf("tally = %+v", tl)
	}
	if got := tl.failed(); got != 68 {
		t.Errorf("failed = %d, want 68", got)
	}
	if got, want := tl.failedFrac(), 1.0; got != want {
		t.Errorf("failedFrac = %v, want %v", got, want)
	}
	if (tally{}).failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted is not 0")
	}
}

func TestWindowsReportPerWindowRates(t *testing.T) {
	// 2000 samples over 10 s, one query each, latency 1 ms except a
	// 100 ms stall confined to the first second.
	var samples []sample
	for i := 0; i < 2000; i++ {
		done := float64(i) / 200
		lat := 0.001
		if done < 1 {
			lat = 0.1
		}
		samples = append(samples, sample{Done: done, Latency: lat, OK: 1})
	}
	w := windows(samples, 10)
	if len(w.QPS) != maxWindows || w.MinSamples != 200 {
		t.Fatalf("got %d windows of >= %d samples, want %d of 200", len(w.QPS), w.MinSamples, maxWindows)
	}
	if got := median(w.QPS); got != 200 {
		t.Errorf("median qps = %v, want 200", got)
	}
	if got := median(w.P90); got != 0.001 {
		t.Errorf("median p90 = %v, want the unstalled 0.001", got)
	}
	if few := windows(samples[:150], 10); len(few.QPS) != 1 {
		t.Errorf("150 samples split into %d windows, want 1", len(few.QPS))
	}
}

// TestPhaseExcludesWarmupAndCountsSheds drives a phase against a server
// that sheds everything: the phase must send exactly the generated
// requests after the warm-up ones, and count every 503 as failed.
func TestPhaseExcludesWarmupAndCountsSheds(t *testing.T) {
	w, err := newWorkload("query-minflops", 3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		rw.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	ph := runPhase(context.Background(), w, &expressions{}, srv.URL, w.Warmup, 200*time.Millisecond, nil)
	if ph.Requests == 0 || ph.Requests != len(bodies) {
		t.Fatalf("phase sent %d requests, server saw %d", ph.Requests, len(bodies))
	}
	if ph.Tally.Shed != ph.Requests || ph.Tally.failed() != ph.Tally.Attempted || ph.Verified != 0 {
		t.Errorf("tally %+v, verified %d after %d shed requests", ph.Tally, ph.Verified, ph.Requests)
	}
	if ph.Next != w.Warmup+ph.Requests {
		t.Errorf("next id %d, want %d", ph.Next, w.Warmup+ph.Requests)
	}
	want := map[string]bool{}
	for i := w.Warmup; i < ph.Next; i++ {
		want[string(w.Request(i).Body)] = true
	}
	for _, b := range bodies {
		if !want[b] {
			t.Fatalf("phase sent a body that is not one of requests %d..%d: %s", w.Warmup, ph.Next-1, b)
		}
	}
}

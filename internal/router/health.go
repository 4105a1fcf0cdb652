package router

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Active health probing: every ProbeEvery the router GETs each
// backend's /healthz. DownAfter consecutive failures mark a backend
// down and force its breaker open (probes are ground truth, no windowed
// evidence needed); the first success after a down spell marks it up
// and closes the breaker — recovery after a restart is automatic,
// within one probe interval of the backend answering again.

func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every backend concurrently — sequential probes of a
// half-dead fleet would stack ProbeTimeouts past the probe interval.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			rt.probeOne(b)
		}(b)
	}
	wg.Wait()
}

// probeOne runs one health probe and folds the result into the
// backend's up/down state and breaker. Only this prober goroutine
// writes consecFails.
func (rt *Router) probeOne(b *backendState) {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err == nil {
		if resp, err := rt.client.Do(req); err == nil {
			// Ready means ready: a 503 (reloading, saturated) is a probe
			// failure, steering shard-owner traffic at the first retry
			// candidate until the backend has headroom again.
			ok = resp.StatusCode >= 200 && resp.StatusCode < 300
			// Drain the body so the transport can reuse the connection;
			// closing it unread makes every probe dial anew. The cap
			// keeps an oversized body from stalling the prober.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
		}
	}
	if ok {
		b.consecFails = 0
		if !b.up.Swap(true) {
			// Down -> up transition: the probe proved the backend answers
			// again, so the breaker closes now rather than after its own
			// half-open timer.
			b.br.probeRecovered()
		}
		return
	}
	b.probeFails.Add(1)
	b.consecFails++
	if b.consecFails >= rt.cfg.DownAfter {
		if b.up.Swap(false) {
			b.br.forceOpen()
		}
	}
}

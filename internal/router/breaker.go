package router

import (
	"sync"
	"time"
)

// Circuit breaker states. The classic machine: closed passes traffic
// and watches the failure rate; open fails fast; half-open lets a trial
// request (or a health probe) decide between re-closing and re-opening.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker tuning, the same for every backend: the sliding outcome
// window per backend, the samples it needs before it may trip, the
// failure fraction that opens it, and the fail-fast period before a
// half-open trial.
const (
	breakerWindow     = 20
	breakerMinSamples = 5
	breakerTripRatio  = 0.5
	breakerOpenFor    = 2 * time.Second
)

// breakerStateNames render the state for /api/v1/stats.
var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breaker is one backend's circuit breaker. It trips on the failure
// rate over a sliding window of recent forwards — a single timeout in a
// storm of successes must not blind the router to a healthy backend —
// and recovers either by time (half-open trial after openFor) or by
// authority (reset() from a health-probe transition, the probe having
// just proven the backend answers again).
type breaker struct {
	mu sync.Mutex
	// window is a ring buffer of recent forward outcomes (true =
	// failure); filled counts how much of it is populated.
	window      []bool
	idx, filled int
	fails       int
	state       int
	openedAt    time.Time
	// openFor is how long the breaker fails fast before allowing a
	// half-open trial; minSamples gates tripping until the window has
	// evidence; tripRatio is the failure fraction that opens it.
	openFor    time.Duration
	minSamples int
	tripRatio  float64
	opens      uint64
	now        func() time.Time
}

func newBreaker(window, minSamples int, tripRatio float64, openFor time.Duration) *breaker {
	return &breaker{
		window:     make([]bool, window),
		minSamples: minSamples,
		tripRatio:  tripRatio,
		openFor:    openFor,
		now:        time.Now,
	}
}

// allow reports whether a forward may proceed. An open breaker starts a
// half-open trial once openFor has elapsed; half-open admits the trial.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.openFor {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// success records a successful forward. In half-open it is the trial
// passing: the breaker closes and the window resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.reset()
		return
	}
	b.record(false)
}

// failure records a failed forward. In half-open it is the trial
// failing: straight back to open for another openFor. Closed trips to
// open when the windowed failure rate reaches tripRatio.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.open()
		return
	}
	b.record(true)
	if b.state == breakerClosed && b.filled >= b.minSamples &&
		float64(b.fails) >= b.tripRatio*float64(b.filled) {
		b.open()
	}
}

// forceOpen trips the breaker by authority — the health prober marking
// the backend down. No windowed evidence needed: probes are ground
// truth.
func (b *breaker) forceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		b.open()
	}
}

// probeRecovered closes the breaker by authority — the health prober
// just saw the backend answer /healthz after it had been down.
func (b *breaker) probeRecovered() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.reset()
	}
}

// open and reset are the state transitions; callers hold the lock.
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.opens++
}

func (b *breaker) reset() {
	b.state = breakerClosed
	b.idx, b.filled, b.fails = 0, 0, 0
	for i := range b.window {
		b.window[i] = false
	}
}

// record pushes one outcome into the sliding window; callers hold the
// lock.
func (b *breaker) record(failed bool) {
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = failed
	if failed {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
}

// snapshot returns (state name, opens) for stats.
func (b *breaker) snapshot() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state], b.opens
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail estimate resting on fewer is one or two
// outliers, not a percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{0.99, 0.9, 0.75, 0.5}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples by
// the nearest-rank rule. It returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, min(rank(len(sorted), q), len(sorted))-1)]
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it. With too few samples for
// any of them it returns the median.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts attempted operations and each way one can fail. A batch
// item and a feedback request count as one operation each.
type tally struct {
	Attempted int `json:"attempted"`
	Transport int `json:"transport_errors"`
	Shed      int `json:"shed_503"`
	Non200    int `json:"non_200"`
	Wrong     int `json:"wrong_answers"`
}

// status records the outcome of one HTTP request covering n operations:
// a transport error (code 0), a 503 shed or another non-200 status fails
// all n.
func (t *tally) status(code, n int) {
	t.Attempted += n
	switch {
	case code == 0:
		t.Transport += n
	case code == 503:
		t.Shed += n
	case code != 200:
		t.Non200 += n
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Transport += o.Transport
	t.Shed += o.Shed
	t.Non200 += o.Non200
	t.Wrong += o.Wrong
}

// failed is the number of operations that did not yield a verified
// answer.
func (t tally) failed() int { return t.Transport + t.Shed + t.Non200 + t.Wrong }

// failedFrac is failed over attempted (0 when nothing was attempted).
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

// Windowing: a run's samples are split into equal time windows, each
// metric is computed per window, and the run reports the median over
// windows, so a stall of the shared host during a minority of windows
// does not move the result.
const maxWindows = 10

// windowed holds per-window throughput and latency percentiles.
type windowed struct {
	// QPS is correctly answered queries per second; P50 and P90 are
	// latencies in seconds.
	QPS, P50, P90 []float64
	// MinSamples is the smallest window's sample count.
	MinSamples int
}

// windows splits samples completed within elapsed seconds into equal
// windows, as many as keep at least twice the samples a p90 needs in
// each (between 1 and maxWindows).
func windows(samples []sample, elapsed float64) windowed {
	const need = 100 // samples a p90 needs to have minBeyond beyond it
	k := max(1, min(maxWindows, len(samples)/(2*need)))
	lat := make([][]float64, k)
	ok := make([]int, k)
	for _, s := range samples {
		j := min(k-1, int(s.Done/elapsed*float64(k)))
		lat[j] = append(lat[j], s.Latency)
		ok[j] += s.OK
	}
	w := windowed{MinSamples: len(samples)}
	for j := range lat {
		sort.Float64s(lat[j])
		w.MinSamples = min(w.MinSamples, len(lat[j]))
		w.QPS = append(w.QPS, float64(ok[j])/(elapsed/float64(k)))
		w.P50 = append(w.P50, percentile(lat[j], 0.5))
		w.P90 = append(w.P90, percentile(lat[j], 0.9))
	}
	return w
}

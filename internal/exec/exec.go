// Package exec runs algorithms and measures their execution times.
//
// It defines the Executor interface with two backends:
//
//   - Simulated: evaluates the deterministic machine model
//     (lamb/internal/machine). Used to regenerate the paper-scale
//     experiments exactly and quickly.
//   - Measured: executes the pure-Go BLAS kernels (lamb/internal/blas)
//     and times them with the monotonic clock, flushing the cache before
//     each repetition exactly as the paper does.
//
// The Timer wraps an Executor with the paper's measurement protocol:
// each test is repeated Reps times (the paper uses 10) and the median is
// recorded.
package exec

import (
	"context"

	"lamb/internal/expr"
	"lamb/internal/kernels"
	"lamb/internal/stats"
)

// benchSalt offsets the repetition index for isolated call benchmarks so
// their noise realisations differ from in-algorithm executions, as two
// separate measurement campaigns would.
const benchSalt = uint64(1) << 32

// Executor runs algorithms or single calls and reports execution times in
// seconds. Implementations must be deterministic given (algorithm, rep)
// for the simulated backend; the measured backend is genuinely noisy.
type Executor interface {
	// TimeAlgorithm runs one repetition of the algorithm after a cache
	// flush and returns the per-call execution times, in call order.
	// Within the repetition the cache is NOT flushed between calls: later
	// calls observe the inter-kernel cache effects the paper studies.
	TimeAlgorithm(alg *expr.Algorithm, rep uint64) []float64
	// TimeCallCold benchmarks a single call in isolation with a flushed
	// cache (the Experiment 3 protocol).
	TimeCallCold(call kernels.Call, rep uint64) float64
	// Peak returns the machine's (estimated) peak FLOP rate, used to
	// convert times into efficiencies.
	Peak() float64
	// Name identifies the backend in reports.
	Name() string
}

// BatchExecutor is implemented by executors that can execute an
// algorithm fused over many instances (see MixedBatchPlan). The
// simulated backend does not implement it — its model has no
// per-dispatch fixed costs to amortise — so callers type-assert and
// fall back to the per-instance path. Fusing is for computing results
// only: every timed measurement follows the per-instance cold-cache
// protocol of Timer. Fused plans compute, never time, so callers may
// run several at once on different cores; a caller that also measures
// (the engine) keeps measurements exclusive of any compute.
type BatchExecutor interface {
	// FuseWidth reports how many instances of alg one fused plan should
	// execute together, so the plan's arena stays within the slab
	// budget, or 0 if the algorithm is outside the fused regime.
	FuseWidth(alg *expr.Algorithm) int
}

// Measurement is the result of timing one algorithm with repetitions.
type Measurement struct {
	// Total is the median over repetitions of the summed per-call times —
	// the execution time the paper records for an algorithm.
	Total float64
	// PerCall holds the median per-call times, in call order.
	PerCall []float64
}

// Timer applies the paper's measurement protocol (median of Reps
// repetitions, cache flushed before each) on top of an Executor.
type Timer struct {
	Exec Executor
	// Reps is the number of repetitions; the paper uses 10.
	Reps int
}

// NewTimer returns a Timer with the paper's 10 repetitions.
func NewTimer(e Executor) *Timer { return &Timer{Exec: e, Reps: 10} }

// MeasureAlgorithm times the algorithm, returning the median total and
// median per-call times.
func (t *Timer) MeasureAlgorithm(alg *expr.Algorithm) Measurement {
	m, _ := t.MeasureAlgorithmCtx(context.Background(), alg)
	return m
}

// MeasureAlgorithmCtx is MeasureAlgorithm made cancellable for serving:
// the context is checked between repetitions (never inside one — a
// repetition's timed region stays allocation- and branch-identical to
// the paper's protocol), so a request deadline aborts a measurement
// within one repetition's duration. On cancellation the partial
// measurement is discarded and ctx.Err() returned.
func (t *Timer) MeasureAlgorithmCtx(ctx context.Context, alg *expr.Algorithm) (Measurement, error) {
	reps := t.reps()
	totals := make([]float64, reps)
	perCall := make([][]float64, len(alg.Calls))
	for i := range perCall {
		perCall[i] = make([]float64, reps)
	}
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		times := t.Exec.TimeAlgorithm(alg, uint64(r))
		var sum float64
		for i, ct := range times {
			perCall[i][r] = ct
			sum += ct
		}
		totals[r] = sum
	}
	m := Measurement{Total: stats.Median(totals), PerCall: make([]float64, len(alg.Calls))}
	for i := range perCall {
		m.PerCall[i] = stats.Median(perCall[i])
	}
	return m, nil
}

// MeasureAll times every algorithm in the slice.
func (t *Timer) MeasureAll(algs []expr.Algorithm) []Measurement {
	out := make([]Measurement, len(algs))
	for i := range algs {
		out[i] = t.MeasureAlgorithm(&algs[i])
	}
	return out
}

// MeasureCallCold benchmarks a single call in isolation (flushed cache),
// returning the median over repetitions.
func (t *Timer) MeasureCallCold(call kernels.Call) float64 {
	reps := t.reps()
	times := make([]float64, reps)
	for r := 0; r < reps; r++ {
		times[r] = t.Exec.TimeCallCold(call, uint64(r))
	}
	return stats.Median(times)
}

func (t *Timer) reps() int {
	if t.Reps <= 0 {
		return 10
	}
	return t.Reps
}

// Efficiency converts a call time into the paper's efficiency metric:
// attributed FLOPs / (time × peak).
func Efficiency(call kernels.Call, seconds, peak float64) float64 {
	if seconds <= 0 || peak <= 0 {
		return 0
	}
	return call.Flops() / (seconds * peak)
}

// AlgorithmEfficiency returns the efficiency of a whole algorithm run:
// its total FLOP count over (total time × peak).
func AlgorithmEfficiency(alg *expr.Algorithm, total, peak float64) float64 {
	if total <= 0 || peak <= 0 {
		return 0
	}
	return alg.Flops() / (total * peak)
}

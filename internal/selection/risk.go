package selection

import (
	"math"

	"lamb/internal/expr"
	"lamb/internal/xrand"
)

// The follow-up paper "A Test for FLOPs as a Discriminant for Linear
// Algebra Algorithms" (arXiv:2209.03258) asks not just *which*
// algorithm is fastest but *how sure* a selector can be: it builds a
// statistical test for when the min-FLOPs discriminant is trustworthy.
// This file implements that test over the Adaptive posterior — each
// algorithm's execution time is summarised as a normal with a mean and
// a standard error, and the test statistics below (pairwise beat
// probability, top-2 gap confidence, win probabilities by quadrature)
// turn those posteriors into a ranking with honest uncertainty.

// DefaultPriorRelStd is the prior's relative spread: the paper's
// profile-based predictions land within a few tens of percent of
// measured times on the studied machines, so the virtual prior
// observation carries a standard deviation of a quarter of the
// predicted time.
const DefaultPriorRelStd = 0.25

// DefaultAnomalyThreshold flags the paper's mispredict regions: a query
// is anomalous when the min-FLOPs pick's probability of beating the
// posterior-best algorithm falls below this value — i.e. the evidence
// contradicts the discriminant with ≥90% confidence.
const DefaultAnomalyThreshold = 0.1

// AlgPosterior is one algorithm's time posterior: a normal summary of
// everything known about its execution time at the queried instance.
type AlgPosterior struct {
	// Algorithm is the 1-based algorithm index (Algorithm.Index).
	Algorithm int
	// Mean is the posterior mean execution time in seconds.
	Mean float64
	// StdErr is the standard error of the mean: the pooled standard
	// deviation shrunk by the total evidence mass.
	StdErr float64
	// Weight is the total evidence mass behind the estimate (prior
	// pseudo-count plus distance-weighted observation mass).
	Weight float64
	// Informed reports whether any measured outcome contributed.
	Informed bool
}

// BestIndex returns the position of the posterior-mean argmin — strict
// minimum, first wins — matching the deterministic tie-break every
// other strategy in this package uses.
func BestIndex(post []AlgPosterior) int {
	if len(post) == 0 {
		panic("selection: choose from empty set")
	}
	best := 0
	bestT := post[0].Mean
	for i := 1; i < len(post); i++ {
		if post[i].Mean < bestT {
			best, bestT = i, post[i].Mean
		}
	}
	return best
}

// normalCDF is Φ(x) via the complementary error function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BeatProbability is P(tₐ < t_b) under independent normal posteriors:
// Φ((μ_b−μₐ)/√(σₐ²+σ_b²)). With both spreads zero the answer is
// decided by the means alone (½ on an exact tie).
func BeatProbability(a, b AlgPosterior) float64 {
	denom := math.Sqrt(a.StdErr*a.StdErr + b.StdErr*b.StdErr)
	if denom == 0 {
		switch {
		case a.Mean < b.Mean:
			return 1
		case a.Mean > b.Mean:
			return 0
		default:
			return 0.5
		}
	}
	return normalCDF((b.Mean - a.Mean) / denom)
}

// GapConfidence is the closed-form top-2 test statistic: the
// probability that the posterior-best algorithm beats the runner-up.
// Near ½ the ranking's head is a coin flip; near 1 it is settled. A
// single-algorithm set is trivially certain.
func GapConfidence(post []AlgPosterior) float64 {
	if len(post) < 2 {
		return 1
	}
	best := BestIndex(post)
	runner := -1
	for i := range post {
		if i == best {
			continue
		}
		if runner < 0 || post[i].Mean < post[runner].Mean {
			runner = i
		}
	}
	return BeatProbability(post[best], post[runner])
}

// WinProbabilities computes each algorithm's probability of being the
// fastest, P(i best) = ∫ fᵢ(t) Πⱼ≠ᵢ Sⱼ(t) dt, where fᵢ is algorithm i's
// posterior density and Sⱼ(t) = P(tⱼ > t) its survival. Two algorithms
// use the closed form (so the pair sums to exactly 1). Larger sets are
// integrated by deterministic quadrature and quantised to multiples of
// 2⁻³² that sum to exactly 1; see winIntegrals and quantise. A
// posterior with no spread is a point mass at its mean, and ties
// between point masses go to the lowest position, matching BestIndex.
//
// rng and samples are ignored: the result is a pure function of post.
// They remain in the signature for callers written against the former
// Monte Carlo sampler.
func WinProbabilities(post []AlgPosterior, rng *xrand.Rand, samples int) []float64 {
	switch len(post) {
	case 0:
		return nil
	case 1:
		return []float64{1}
	case 2:
		if isPointMass(post[0]) && isPointMass(post[1]) {
			// Two steps: the lower mean wins outright, and a tie goes to
			// the lower position, as for larger sets.
			if post[1].Mean < post[0].Mean {
				return []float64{0, 1}
			}
			return []float64{1, 0}
		}
		p := BeatProbability(post[0], post[1])
		return []float64{p, 1 - p}
	}
	n := len(post)
	out := make([]float64, n)
	// Scratch lives on the stack for the set sizes the registered
	// expressions produce, so the output is the only allocation.
	var (
		stackF [7*quadStackAlgs + 1]float64
		stackI [2 * quadStackAlgs]int
	)
	fwork, iwork := stackF[:], stackI[:]
	if n > quadStackAlgs {
		fwork, iwork = make([]float64, 7*n+1), make([]int, 2*n)
	}
	winIntegrals(post, out, fwork, iwork)
	if !quantise(out, fwork[:n]) {
		// Degenerate input (non-finite moments): fall back to the
		// posterior-mean argmin with certainty.
		clear(out)
		out[BestIndex(post)] = 1
	}
	return out
}

// Quadrature parameters, sized against a fine-grid reference (see
// TestWinProbabilitiesMatchReference: worst absolute error ≈4e-5 on
// random 3–8-algorithm sets).
//
// Every posterior's support is cut at μ ± quadTail·σ; each cut tail
// holds < 1.3e-12 of the mass. quadZ are the standard-normal abscissae
// each posterior contributes to the grid: dense near the mean, where
// densities and survivals bend most, sparse in the tails. A node closer
// to the previous kept node than quadThin times the smaller of their two
// posteriors' spreads is dropped, since overlapping posteriors of
// similar scale would otherwise pile up nodes far denser than either
// needs. Sets of up to quadStackAlgs algorithms integrate in stack
// scratch.
const (
	quadTail      = 7
	quadThin      = 0.8
	quadStackAlgs = 16
)

var quadZ = [...]float64{-5, -3, -1.8, -0.6, 0.6, 1.8, 3, 5}

// gl3 is the 3-point Gauss–Legendre rule on [−1, 1]: exact for
// polynomials up to degree 5.
var gl3 = [3]struct{ x, w float64 }{
	{-0.7745966692414834, 5.0 / 9},
	{0, 8.0 / 9},
	{0.7745966692414834, 5.0 / 9},
}

// isPointMass reports whether a posterior's spread is too small for the
// grid to resolve (none at all, or below 1e-12 of its mean); such a
// posterior is ranked as a step at its mean.
func isPointMass(p AlgPosterior) bool {
	return !(p.StdErr > math.Abs(p.Mean)*1e-12)
}

// winIntegrals writes each position's unnormalised probability of being
// fastest into out. fwork holds at least 7n+1 floats and iwork 2n ints.
//
// The integration runs over [lo, hi]: hi is the lowest upper tail cut,
// since past it some algorithm has almost surely finished, and lo the
// lowest lower tail cut among the posteriors that start before hi.
// Posteriors that start past hi are pruned: probability 0, survival 1
// on [lo, hi]. The grid is the union of every remaining posterior's
// μ + σ·quadZ nodes, thinned, so each survival's drop is resolved on its
// own scale however the scales mix. The per-posterior node lists are
// already sorted, so the walk merges them instead of sorting the union.
// Each interval gets 3-point Gauss–Legendre, and the products Πⱼ≠ᵢ Sⱼ
// come from prefix and suffix products, so a grid point costs O(n).
//
// Point masses are steps, not densities. Only the lowest one (lowest
// position on a tie) can win: the integration stops at its mean m,
// where its step survival drops to 0, and its own probability is
// Πⱼ Sⱼ(m) over the continuous posteriors.
func winIntegrals(post []AlgPosterior, out, fwork []float64, iwork []int) {
	pm, hi := -1, math.Inf(1)
	for i, p := range post {
		switch {
		case !isPointMass(p):
			hi = math.Min(hi, p.Mean+quadTail*p.StdErr)
		case pm < 0 || p.Mean < post[pm].Mean:
			pm = i
		}
	}
	if pm >= 0 {
		hi = math.Min(hi, post[pm].Mean)
	}
	lo, act := hi, iwork[:0]
	for i, p := range post {
		if start := p.Mean - quadTail*p.StdErr; !isPointMass(p) && start < hi {
			act = append(act, i)
			lo = math.Min(lo, start)
		}
	}

	// The per-posterior arrays are indexed by rank in act. head[k] is
	// the quadZ index of list k's next node and next[k] that node, +∞
	// once the list is spent.
	a := len(act)
	head := iwork[a : 2*a]
	mu, sig, inv, next := fwork[:a], fwork[a:2*a], fwork[2*a:3*a], fwork[3*a:4*a]
	surv, dens, suf := fwork[4*a:5*a], fwork[5*a:6*a], fwork[6*a:7*a+1]
	for k, i := range act {
		mu[k], sig[k], inv[k] = post[i].Mean, post[i].StdErr, 1/post[i].StdErr
		next[k] = math.Inf(1)
		for head[k] = 0; head[k] < len(quadZ); head[k]++ {
			if t := mu[k] + sig[k]*quadZ[head[k]]; t > lo {
				next[k] = t
				break
			}
		}
	}

	clear(out)
	suf[a] = 1
	prev, prevScale := lo, 0.0
	for prev < hi {
		// The next node is the lowest pending one, or hi once every
		// list is past it. The cuts carry scale 0: never thinned.
		t, scale, from := hi, 0.0, -1
		for k, nk := range next {
			if nk < t {
				t, scale, from = nk, sig[k], k
			}
		}
		if from >= 0 {
			head[from]++
			next[from] = math.Inf(1)
			if head[from] < len(quadZ) {
				next[from] = mu[from] + sig[from]*quadZ[head[from]]
			}
			if t-prev < quadThin*min(scale, prevScale) {
				continue
			}
		}
		half := (t - prev) / 2
		mid := prev + half
		prev, prevScale = t, scale
		for _, g := range gl3 {
			x := mid + g.x*half
			for k := range surv {
				surv[k] = (x - mu[k]) * inv[k]
			}
			normTails(surv, dens)
			for k := a - 1; k >= 0; k-- {
				suf[k] = suf[k+1] * surv[k]
			}
			pre := half * g.w
			for k, i := range act {
				out[i] += pre * dens[k] * inv[k] * suf[k+1]
				pre *= surv[k]
			}
		}
	}
	if pm >= 0 {
		for k := range surv {
			surv[k] = (post[pm].Mean - mu[k]) * inv[k]
		}
		normTails(surv, dens)
		out[pm] = 1
		for _, s := range surv {
			out[pm] *= s
		}
	}
}

// quantise rescales raw to sum to 1 and rounds it to multiples of 2⁻³²
// whose float64 sum is exactly 1: every entry is floored, and the units
// the floors dropped go one each to the largest remainders, ties to the
// lowest position. rem is scratch of len(raw). It reports false, leaving
// raw unspecified, when raw has no positive finite total.
func quantise(raw, rem []float64) bool {
	const scale = 1 << 32
	total := 0.0
	for _, v := range raw {
		total += v
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return false
	}
	left := float64(scale)
	for i, v := range raw {
		// Clamped so that a rounding residue below 0 cannot floor to −1.
		x := max(v, 0) / total * scale
		raw[i] = math.Floor(x)
		rem[i] = x - raw[i]
		left -= raw[i]
	}
	// left ≤ len(raw): each floor drops less than one unit.
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		raw[best]++
		rem[best] = -1
	}
	for i := range raw {
		raw[i] /= scale
	}
	return true
}

// The standard normal survival Q(z) = 1 − Φ(z) and density φ(z),
// tabulated at step 1/normTableDensity on [−normTableLim, normTableLim]
// and read back by cubic Hermite interpolation with the exact
// derivatives Q′ = −φ and φ′ = −zφ. The maximum absolute error is
// 1.4e-9 for Q and 3e-9 for φ; outside the range Q is 0 or 1 and φ is 0
// to well below that.
const (
	normTableLim     = 9
	normTableDensity = 32
)

var normTable = func() (t [2*normTableLim*normTableDensity + 1]struct{ q, p float64 }) {
	for k := range t {
		z := float64(k)/normTableDensity - normTableLim
		t[k].q = 0.5 * math.Erfc(z/math.Sqrt2)
		t[k].p = math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	}
	return t
}()

// normTails overwrites each z[k] with Q(z[k]) and stores φ(z[k]) in
// p[k], reading normTable. NaN reads as −∞. It works on whole columns so
// the hot loop makes one call per grid point, not one per algorithm.
func normTails(z, p []float64) {
	const h = 1.0 / normTableDensity
	p = p[:len(z)]
	for k, zk := range z {
		if !(zk > -normTableLim) {
			z[k], p[k] = 1, 0
			continue
		}
		if !(zk < normTableLim) {
			z[k], p[k] = 0, 0
			continue
		}
		x := (zk + normTableLim) * normTableDensity
		j := min(int(x), len(normTable)-2)
		u := x - float64(j)
		za := float64(j)*h - normTableLim
		a, b := normTable[j], normTable[j+1]
		// Cubic Hermite basis on [za, za+h], the derivative terms scaled by h.
		v := 1 - u
		h00 := (1 + 2*u) * v * v
		h10 := u * v * v * h
		h01 := u * u * (3 - 2*u)
		h11 := -u * u * v * h
		z[k] = h00*a.q - h10*a.p + h01*b.q - h11*b.p
		p[k] = h00*a.p - h10*za*a.p + h01*b.p - h11*(za+h)*b.p
	}
}

// SampleBest draws one execution time per algorithm from its posterior
// and returns the argmin position — one Thompson sampling round. An
// algorithm is selected with exactly its posterior probability of being
// fastest, which is what makes the exploration policy self-correcting:
// under-observed alternatives with wide posteriors get tried, settled
// losers do not.
func SampleBest(post []AlgPosterior, rng *xrand.Rand) int {
	if len(post) == 0 {
		panic("selection: choose from empty set")
	}
	best := 0
	bestT := math.Inf(1)
	for i := range post {
		t := post[i].Mean + post[i].StdErr*rng.NormFloat64()
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// FlopsPredictor is the profile-free prior: an algorithm's "time" is
// its FLOP count. The scale is wrong (operations, not seconds) but the
// induced order is exactly the paper's min-FLOPs discriminant, so a
// posterior built on it ranks identically to MinFlops until real
// outcomes arrive.
type FlopsPredictor struct{}

// PredictAlgorithm implements Predictor.
func (FlopsPredictor) PredictAlgorithm(a *expr.Algorithm) float64 { return a.Flops() }

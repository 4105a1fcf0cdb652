package selection

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"lamb/internal/expr"
	"lamb/internal/xrand"
)

func TestPosteriorWithoutEvidenceIsThePrior(t *testing.T) {
	prior := stubPredictor{1: 3.0, 2: 1.0, 3: 2.0}
	s := Adaptive{Prior: prior}
	post := s.Posterior(expr.Instance{100, 100}, stubAlgs(3))
	if len(post) != 3 {
		t.Fatalf("posterior length %d", len(post))
	}
	for i, want := range []float64{3.0, 1.0, 2.0} {
		if post[i].Mean != want {
			t.Fatalf("posterior %d mean %g, want %g", i, post[i].Mean, want)
		}
		if post[i].Informed {
			t.Fatalf("posterior %d informed with no evidence", i)
		}
		// Prior-only spread: std = relStd·p, mass = 1, so stderr = relStd·p.
		wantSE := DefaultPriorRelStd * want
		if math.Abs(post[i].StdErr-wantSE) > 1e-12 {
			t.Fatalf("posterior %d stderr %g, want %g", i, post[i].StdErr, wantSE)
		}
	}
	if BestIndex(post) != 1 {
		t.Fatalf("best %d, want 1", BestIndex(post))
	}
}

func TestPosteriorMeanMatchesChooseFor(t *testing.T) {
	// Posterior is the generalisation of the old blend: the pooled means
	// must induce exactly the pick ChooseFor makes.
	prior := stubPredictor{1: 1.0, 2: 1.4, 3: 1.5}
	s := Adaptive{
		Prior: prior,
		Observe: func(expr.Instance) []Observation {
			return []Observation{
				{Algorithm: 1, Seconds: 10.0, Count: 3, Distance: 0},
				{Algorithm: 3, Seconds: 0.1, Count: 3, Distance: 0},
			}
		},
	}
	algs := stubAlgs(3)
	inst := expr.Instance{100}
	post := s.Posterior(inst, algs)
	if got, want := BestIndex(post), s.ChooseFor(inst, algs); got != want {
		t.Fatalf("BestIndex %d, ChooseFor %d", got, want)
	}
	// alg1: (1 + 3·10)/4 = 7.75; alg3: (1.5 + 3·0.1)/4 = 0.45.
	if math.Abs(post[0].Mean-7.75) > 1e-12 || math.Abs(post[2].Mean-0.45) > 1e-12 {
		t.Fatalf("pooled means %g %g", post[0].Mean, post[2].Mean)
	}
	if !post[0].Informed || post[1].Informed || !post[2].Informed {
		t.Fatalf("informed flags %v %v %v", post[0].Informed, post[1].Informed, post[2].Informed)
	}
}

func TestPosteriorVarianceShrinksWithEvidence(t *testing.T) {
	// More mass behind the same mean narrows the standard error — the
	// property that makes confidence grow with feedback.
	prior := stubPredictor{1: 1.0}
	obs := Observation{Algorithm: 1, Seconds: 1.0, Count: 1, Distance: 0}
	s := Adaptive{Prior: prior, Observe: func(expr.Instance) []Observation {
		return []Observation{obs}
	}}
	algs := stubAlgs(1)
	inst := expr.Instance{10}
	narrow := s.Posterior(inst, algs)[0]
	obs.Count = 20
	wide := s.Posterior(inst, algs)[0]
	if wide.StdErr >= narrow.StdErr {
		t.Fatalf("stderr did not shrink: %g -> %g", narrow.StdErr, wide.StdErr)
	}
	if wide.Weight <= narrow.Weight {
		t.Fatalf("weight did not grow: %g -> %g", narrow.Weight, wide.Weight)
	}
}

func TestBeatProbability(t *testing.T) {
	a := AlgPosterior{Mean: 1.0, StdErr: 0.1}
	b := AlgPosterior{Mean: 2.0, StdErr: 0.1}
	if p := BeatProbability(a, b); p < 0.99 {
		t.Fatalf("clear winner p=%g", p)
	}
	if p := BeatProbability(b, a); p > 0.01 {
		t.Fatalf("clear loser p=%g", p)
	}
	if p := BeatProbability(a, a); p != 0.5 {
		t.Fatalf("self tie p=%g", p)
	}
	// Complementarity: P(a<b) + P(b<a) = 1.
	c := AlgPosterior{Mean: 1.1, StdErr: 0.3}
	if s := BeatProbability(a, c) + BeatProbability(c, a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("complement sum %g", s)
	}
	// Degenerate posteriors (no spread) decide by mean.
	z1 := AlgPosterior{Mean: 1}
	z2 := AlgPosterior{Mean: 2}
	if BeatProbability(z1, z2) != 1 || BeatProbability(z2, z1) != 0 || BeatProbability(z1, z1) != 0.5 {
		t.Fatal("degenerate beat probabilities")
	}
}

// TestWinProbabilitiesSumToOne is the property test for the ranking: for
// arbitrary posterior sets of every size, p_best sums to exactly 1 and
// every entry stays in [0, 1].
func TestWinProbabilitiesSumToOne(t *testing.T) {
	gen := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + gen.Intn(6)
		post := make([]AlgPosterior, n)
		for i := range post {
			post[i] = AlgPosterior{
				Algorithm: i + 1,
				Mean:      0.1 + gen.Float64(),
				StdErr:    gen.Float64() * 0.5, // sometimes ~0: degenerate spread
			}
		}
		probs := WinProbabilities(post, xrand.New(uint64(trial)), 0)
		if len(probs) != n {
			t.Fatalf("trial %d: %d probs for %d algorithms", trial, len(probs), n)
		}
		sum := 0.0
		for i, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("trial %d: p[%d]=%g out of range", trial, i, p)
			}
			sum += p
		}
		// DefaultRankSamples is a power of two and n≤2 is closed-form, so
		// the sum is exact, not approximate.
		if sum != 1 {
			t.Fatalf("trial %d (n=%d): probabilities sum to %g", trial, n, sum)
		}
	}
}

func TestWinProbabilitiesDeterministicUnderSeededSampler(t *testing.T) {
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 2, Mean: 1.1, StdErr: 0.3},
		{Algorithm: 3, Mean: 1.3, StdErr: 0.1},
	}
	a := WinProbabilities(post, xrand.New(99), 0)
	b := WinProbabilities(post, xrand.New(99), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different probabilities: %v vs %v", a, b)
	}
	// The faster, tighter algorithm should dominate.
	if a[0] <= a[2] {
		t.Fatalf("ordering lost: %v", a)
	}
}

func TestWinProbabilitiesEdgeCases(t *testing.T) {
	if got := WinProbabilities(nil, nil, 0); got != nil {
		t.Fatalf("empty set: %v", got)
	}
	one := WinProbabilities([]AlgPosterior{{Algorithm: 1, Mean: 2}}, nil, 0)
	if !reflect.DeepEqual(one, []float64{1}) {
		t.Fatalf("singleton: %v", one)
	}
	// Two algorithms use the closed form even with a nil rng.
	two := WinProbabilities([]AlgPosterior{
		{Algorithm: 1, Mean: 1, StdErr: 0.1},
		{Algorithm: 2, Mean: 9, StdErr: 0.1},
	}, nil, 0)
	if two[0] < 0.99 || two[0]+two[1] != 1 {
		t.Fatalf("closed form: %v", two)
	}
}

// referenceWinProbabilities is the ground truth the quadrature is held
// to: exact Φ and φ via math.Erfc and math.Exp, no pruning, no table,
// and a fine grid — every continuous posterior contributes nodes at
// μ + σz for z every 1/32 on [−9, 9], every point mass its mean —
// with 2-point Gauss–Legendre per interval. A point mass i wins with
// probability Πⱼ P(tⱼ > μᵢ), a tied point mass at a lower position
// beating it.
func referenceWinProbabilities(post []AlgPosterior) []float64 {
	surv := func(j int, t float64) float64 {
		p := post[j]
		if p.StdErr == 0 {
			if t < p.Mean {
				return 1
			}
			return 0
		}
		return 0.5 * math.Erfc((t-p.Mean)/p.StdErr/math.Sqrt2)
	}
	var nodes []float64
	for _, p := range post {
		if p.StdErr == 0 {
			nodes = append(nodes, p.Mean)
			continue
		}
		for z := -9.0; z <= 9; z += 1.0 / 32 {
			nodes = append(nodes, p.Mean+p.StdErr*z)
		}
	}
	sort.Float64s(nodes)
	out := make([]float64, len(post))
	for i, p := range post {
		if p.StdErr == 0 {
			out[i] = 1
			for j, q := range post {
				switch {
				case j == i:
				case q.StdErr == 0 && q.Mean == p.Mean:
					if j < i {
						out[i] = 0
					}
				default:
					out[i] *= surv(j, p.Mean)
				}
			}
			continue
		}
		for g := 1; g < len(nodes); g++ {
			half := (nodes[g] - nodes[g-1]) / 2
			mid := nodes[g-1] + half
			for _, t := range []float64{mid - half/math.Sqrt(3), mid + half/math.Sqrt(3)} {
				z := (t - p.Mean) / p.StdErr
				f := half * math.Exp(-z*z/2) / (p.StdErr * math.Sqrt(2*math.Pi))
				for j := range post {
					if j != i {
						f *= surv(j, t)
					}
				}
				out[i] += f
			}
		}
	}
	return out
}

// TestWinProbabilitiesMatchReference holds the quadrature to 1e-3
// absolute against the fine-grid reference on random 3–8-algorithm
// sets: comparable spreads, mixed scales (a 1% posterior beside 25%
// ones), and point masses among continuous posteriors.
func TestWinProbabilitiesMatchReference(t *testing.T) {
	gen := xrand.New(11)
	worst := 0.0
	for trial := 0; trial < 150; trial++ {
		n := 3 + gen.Intn(6)
		post := make([]AlgPosterior, n)
		for i := range post {
			mean := 1 + 0.5*gen.Float64()
			rel := 0.05 + 0.25*gen.Float64()
			switch trial % 3 {
			case 1: // mixed scales
				rel = []float64{0.01, 0.25}[gen.Intn(2)]
			case 2: // some point masses
				if gen.Intn(3) == 0 {
					rel = 0
				}
			}
			post[i] = AlgPosterior{Algorithm: i + 1, Mean: mean, StdErr: rel * mean}
		}
		got := WinProbabilities(post, nil, 0)
		want := referenceWinProbabilities(post)
		for i := range got {
			d := math.Abs(got[i] - want[i])
			worst = math.Max(worst, d)
			if d > 1e-3 {
				t.Fatalf("trial %d: p[%d] = %.6f, reference %.6f\nposterior %+v", trial, i, got[i], want[i], post)
			}
		}
	}
	t.Logf("worst absolute error %.2e", worst)
}

// TestWinProbabilitiesEqualPosteriorsTie: identical posteriors are
// exchangeable, so they get the same p_best, up to the one 2⁻³² quantum
// the exact-sum rounding hands out by position.
func TestWinProbabilitiesEqualPosteriorsTie(t *testing.T) {
	const quantum = 1.0 / (1 << 32)
	for n := 3; n <= 8; n++ {
		for _, se := range []float64{0.01, 0.25, 0} {
			post := make([]AlgPosterior, n)
			for i := range post {
				post[i] = AlgPosterior{Algorithm: i + 1, Mean: 2, StdErr: se}
			}
			got := WinProbabilities(post, nil, 0)
			if se == 0 {
				// Tied point masses: the lowest position wins, as in BestIndex.
				if got[0] != 1 {
					t.Fatalf("n=%d tied point masses: %v", n, got)
				}
				continue
			}
			for i := range got {
				if math.Abs(got[i]-got[0]) > quantum {
					t.Fatalf("n=%d se=%g: unequal p_best %v", n, se, got)
				}
			}
		}
	}
	// Equal pairs inside a larger set tie too.
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 2, Mean: 1.1, StdErr: 0.05},
		{Algorithm: 3, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 4, Mean: 1.1, StdErr: 0.05},
	}
	got := WinProbabilities(post, nil, 0)
	if math.Abs(got[0]-got[2]) > quantum || math.Abs(got[1]-got[3]) > quantum {
		t.Fatalf("equal pairs: %v", got)
	}
}

// TestWinProbabilitiesIgnoreRNG: the ranking is a pure function of the
// posteriors, whatever generator or sample count a caller passes.
func TestWinProbabilitiesIgnoreRNG(t *testing.T) {
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.2},
		{Algorithm: 2, Mean: 1.1, StdErr: 0.3},
		{Algorithm: 3, Mean: 1.3, StdErr: 0.1},
	}
	want := WinProbabilities(post, nil, 0)
	for seed := uint64(0); seed < 4; seed++ {
		if got := WinProbabilities(post, xrand.New(seed), int(seed)*100); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %v, want %v", seed, got, want)
		}
	}
}

// TestWinProbabilitiesPointMassBeatsSlowerSpread: a point mass wins with
// exactly the probability that every continuous rival finishes after
// it, and point masses behind it get nothing.
func TestWinProbabilitiesPointMassBeatsSlowerSpread(t *testing.T) {
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.2, StdErr: 0.1},
		{Algorithm: 2, Mean: 1.0},
		{Algorithm: 3, Mean: 1.05},
		{Algorithm: 4, Mean: 1.1, StdErr: 0.2},
	}
	got := WinProbabilities(post, nil, 0)
	want := normalCDF(2) * normalCDF(0.5) // P(t₁ > 1)·P(t₄ > 1)
	if math.Abs(got[1]-want) > 1e-3 || got[2] != 0 {
		t.Fatalf("point masses: %v, want p[1]=%.6f", got, want)
	}
}

// TestWinProbabilitiesPrunesHopelessAlgorithms: algorithms that start
// after another has almost surely finished get exactly 0 and leave the
// others' probabilities bit-for-bit unchanged. With 20 algorithms this
// also runs the heap-scratch path.
func TestWinProbabilitiesPrunesHopelessAlgorithms(t *testing.T) {
	contenders := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.1},
		{Algorithm: 2, Mean: 1.1, StdErr: 0.2},
		{Algorithm: 3, Mean: 0.9, StdErr: 0.05},
		{Algorithm: 4, Mean: 1.2, StdErr: 0.01},
	}
	want := WinProbabilities(contenders, nil, 0)
	post := append([]AlgPosterior(nil), contenders...)
	for i := len(post); i < 20; i++ {
		post = append(post, AlgPosterior{Algorithm: i + 1, Mean: 10 + float64(i), StdErr: 1})
	}
	got := WinProbabilities(post, nil, 0)
	if !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("contenders %v, alone %v", got[:len(want)], want)
	}
	for i, p := range got[len(want):] {
		if p != 0 {
			t.Fatalf("hopeless algorithm %d got %g", len(want)+i+1, p)
		}
	}
}

func TestWinProbabilitiesAllocatesOnlyItsOutput(t *testing.T) {
	post := make([]AlgPosterior, 16)
	for i := range post {
		post[i] = AlgPosterior{Algorithm: i + 1, Mean: 1 + 0.05*float64(i), StdErr: 0.1}
	}
	if a := testing.AllocsPerRun(100, func() { WinProbabilities(post, nil, 0) }); a > 1 {
		t.Fatalf("%v allocations per call, want 1", a)
	}
}

func normTail1(z float64) (q, p float64) {
	zs, ps := []float64{z}, []float64{0}
	normTails(zs, ps)
	return zs[0], ps[0]
}

func TestNormTailsMatchErfc(t *testing.T) {
	var worstQ, worstP float64
	for z := -10.0; z <= 10; z += 1.0 / 997 {
		q, p := normTail1(z)
		worstQ = math.Max(worstQ, math.Abs(q-0.5*math.Erfc(z/math.Sqrt2)))
		worstP = math.Max(worstP, math.Abs(p-math.Exp(-z*z/2)/math.Sqrt(2*math.Pi)))
	}
	if worstQ > 1.5e-9 || worstP > 3e-9 {
		t.Fatalf("normTail max abs error: Q %.2e, φ %.2e", worstQ, worstP)
	}
	if q, p := normTail1(math.NaN()); q != 1 || p != 0 {
		t.Fatalf("NaN: %g %g", q, p)
	}
}

func BenchmarkWinProbabilities(b *testing.B) {
	for _, n := range []int{3, 5, 8, 16} {
		post := make([]AlgPosterior, n)
		for i := range post {
			mean := 1 + 0.1*float64(i)
			post[i] = AlgPosterior{Algorithm: i + 1, Mean: mean, StdErr: DefaultPriorRelStd * mean}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				WinProbabilities(post, nil, 0)
			}
		})
	}
}

func TestGapConfidence(t *testing.T) {
	settled := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.01},
		{Algorithm: 2, Mean: 2.0, StdErr: 0.01},
		{Algorithm: 3, Mean: 3.0, StdErr: 0.01},
	}
	if c := GapConfidence(settled); c < 0.99 {
		t.Fatalf("settled gap confidence %g", c)
	}
	coinFlip := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.5},
		{Algorithm: 2, Mean: 1.001, StdErr: 0.5},
	}
	if c := GapConfidence(coinFlip); math.Abs(c-0.5) > 0.01 {
		t.Fatalf("coin-flip gap confidence %g", c)
	}
	if c := GapConfidence(settled[:1]); c != 1 {
		t.Fatalf("singleton gap confidence %g", c)
	}
}

func TestSampleBestExploresWidePosterior(t *testing.T) {
	// Thompson property: a slightly-slower algorithm with a wide
	// posterior is sampled sometimes; a settled loser essentially never.
	post := []AlgPosterior{
		{Algorithm: 1, Mean: 1.0, StdErr: 0.01}, // settled favourite
		{Algorithm: 2, Mean: 1.1, StdErr: 0.5},  // uncertain challenger
		{Algorithm: 3, Mean: 5.0, StdErr: 0.01}, // settled loser
	}
	rng := xrand.New(3)
	counts := [3]int{}
	for i := 0; i < 2000; i++ {
		counts[SampleBest(post, rng)]++
	}
	if counts[1] == 0 {
		t.Fatal("uncertain challenger never explored")
	}
	if counts[0] < counts[1] {
		t.Fatalf("favourite sampled less than challenger: %v", counts)
	}
	if counts[2] != 0 {
		t.Fatalf("settled loser explored %d times", counts[2])
	}
}

func TestFlopsPredictorOrdersLikeMinFlops(t *testing.T) {
	algs := stubAlgs(3)
	var p FlopsPredictor
	post := make([]AlgPosterior, len(algs))
	for i := range algs {
		post[i] = AlgPosterior{Algorithm: algs[i].Index, Mean: p.PredictAlgorithm(&algs[i])}
	}
	if BestIndex(post) != (MinFlops{}).Choose(algs) {
		t.Fatal("FlopsPredictor posterior disagrees with MinFlops")
	}
}

package mat

import (
	"math"
	"strconv"
	"testing"

	"lamb/internal/xrand"
)

// fillSPDReference is the dot-product formulation of FillSPD: each
// element of G·Gᵀ sums its products over p = 0…n−1, striding through G.
func fillSPDReference(m *Dense, rng *xrand.Rand) {
	n := m.Rows
	g := make([]float64, n*n)
	for i := range g {
		g[i] = 2*rng.Float64() - 1
	}
	inv := 1 / float64(n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var acc float64
			for p := 0; p < n; p++ {
				acc += g[i+p*n] * g[j+p*n]
			}
			v := acc * inv
			if i == j {
				v++
			}
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
}

// TestFillSPDMatchesReference pins FillSPD's rank-1 accumulation bit
// for bit to the dot-product formulation, for n = 1…80 across several
// seeds, on a compact matrix and on a strided one whose padding holds
// garbage, reusing one dirty scratch buffer throughout.
func TestFillSPDMatchesReference(t *testing.T) {
	scratch := make([]float64, 80*80)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	for _, seed := range []uint64{1, 0x5ab5, 0xfeed, 0xdeadbeef} {
		for n := 1; n <= 80; n++ {
			want := New(n, n)
			fillSPDReference(want, xrand.New(seed))
			for _, stride := range []int{n, n + 3} {
				got := &Dense{Rows: n, Cols: n, Stride: stride, Data: make([]float64, stride*n)}
				for i := range got.Data {
					got.Data[i] = math.Inf(1)
				}
				got.FillSPD(scratch, xrand.New(seed))
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						if a, b := got.At(i, j), want.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("seed %#x n=%d stride=%d: (%d,%d) = %v, reference %v", seed, n, stride, i, j, a, b)
						}
					}
				}
			}
		}
	}
}

// TestFillRandomMatchesPerElementDraws pins FillRandom's block fill to
// the per-element stream 2·Float64()−1, column by column, on a strided
// view whose padding must stay untouched.
func TestFillRandomMatchesPerElementDraws(t *testing.T) {
	parent := New(13, 9)
	for i := range parent.Data {
		parent.Data[i] = math.Inf(1)
	}
	v := parent.View(2, 12, 1, 8)
	v.FillRandom(xrand.New(7))
	ref := xrand.New(7)
	for j := 0; j < v.Cols; j++ {
		for i := 0; i < v.Rows; i++ {
			if got, want := v.At(i, j), 2*ref.Float64()-1; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("(%d,%d) = %v, per-element draw %v", i, j, got, want)
			}
		}
	}
	for j := 0; j < parent.Cols; j++ {
		for i := 0; i < parent.Rows; i++ {
			inside := i >= 2 && i < 12 && j >= 1 && j < 8
			if !inside && !math.IsInf(parent.At(i, j), 1) {
				t.Fatalf("padding (%d,%d) overwritten with %v", i, j, parent.At(i, j))
			}
		}
	}
}

// BenchmarkFillRandom times one dense random fill.
func BenchmarkFillRandom(b *testing.B) {
	m := New(96, 96)
	rng := xrand.New(1)
	for b.Loop() {
		m.FillRandom(rng)
	}
}

// BenchmarkFillSPD times one SPD fill at the sizes the fused batches
// refill per instance.
func BenchmarkFillSPD(b *testing.B) {
	for _, n := range []int{16, 48, 96} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			m := New(n, n)
			scratch := make([]float64, n*n)
			rng := xrand.New(1)
			for b.Loop() {
				m.FillSPD(scratch, rng)
			}
		})
	}
}

package mat

import "lamb/internal/xrand"

// FillRandom fills m with uniform values in [-1, 1) drawn from rng.
// Dense unstructured operands in the paper's experiments are generated
// this way; only sizes, never element values, affect kernel timing.
func (m *Dense) FillRandom(rng *xrand.Rand) {
	for j := 0; j < m.Cols; j++ {
		rng.FillSigned(m.Data[j*m.Stride : j*m.Stride+m.Rows])
	}
}

// NewRandom returns a new r-by-c matrix filled with uniform values in
// [-1, 1) drawn from rng.
func NewRandom(r, c int, rng *xrand.Rand) *Dense {
	m := New(r, c)
	m.FillRandom(rng)
	return m
}

// NewSPDRandom returns a new well-conditioned random symmetric positive
// definite n-by-n matrix (G·Gᵀ/n + I with G random), suitable as input
// to a Cholesky factorisation.
func NewSPDRandom(n int, rng *xrand.Rand) *Dense {
	s := New(n, n)
	s.FillSPD(make([]float64, n*n), rng)
	return s
}

// FillSPD fills the square matrix m in place with a well-conditioned
// random symmetric positive definite matrix (G·Gᵀ/n + I with G random).
// scratch holds G during the fill and must have at least Rows·Rows
// elements; passing a reusable buffer makes repeated fills allocation-
// free (the execution-plan executor refills SPD inputs this way on
// every repetition).
//
// Each element of G·Gᵀ sums its products over p = 0…n−1 in order. On
// amd64 with AVX an 8×4 register tile kernel computes the lower
// triangle, keeping that order in every vector lane. It uses separate
// multiplies and adds, never FMA: the portable loop rounds each product
// before adding it, and a fused multiply-add would skip that rounding,
// changing the bits of every SPD operand and so of every result computed
// from one. The portable loop stays the path on other platforms and on
// CPUs without AVX.
func (m *Dense) FillSPD(scratch []float64, rng *xrand.Rand) {
	n := m.Rows
	if m.Cols != n {
		panic("mat: FillSPD of non-square matrix")
	}
	if len(scratch) < n*n {
		panic("mat: FillSPD scratch too short")
	}
	g := scratch[:n*n]
	rng.FillSigned(g)
	fillGramSPD(m, g)
}

// spdEntry finishes one element of G·Gᵀ/n + I from its Gram sum acc.
// Every fill path goes through it, so they round alike.
func spdEntry(acc, inv float64, diag bool) float64 {
	v := acc * inv
	if diag {
		v++
	}
	return v
}

// fillGramSPDGeneric sets the n×n matrix m to G·Gᵀ/n + I, for G the n×n
// column-major matrix g. It accumulates the lower triangle by rank-1
// updates over G's contiguous columns, so each element sums its
// p = 0…n−1 products in the same order as a dot product over p would,
// without striding through G; then it finishes and mirrors it.
func fillGramSPDGeneric(m *Dense, g []float64) {
	n := m.Rows
	for j := 0; j < n; j++ {
		clear(m.Data[j+j*m.Stride : n+j*m.Stride])
	}
	for p := 0; p < n; p++ {
		gp := g[p*n : p*n+n]
		for j, gj := range gp {
			gs := gp[j:]
			col := m.Data[j+j*m.Stride:][:len(gs)]
			for i, gi := range gs {
				col[i] += gi * gj
			}
		}
	}
	inv := 1 / float64(n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := spdEntry(m.Data[i+j*m.Stride], inv, i == j)
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
}

// NewSymmetricRandom returns a new random symmetric n-by-n matrix.
func NewSymmetricRandom(n int, rng *xrand.Rand) *Dense {
	m := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := 2*rng.Float64() - 1
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
	return m
}

package blas

// This file holds the portable implementations of the small SIMD
// primitives shared by the packing routines and the triangular kernels:
// contiguous axpy, the fused rank-4 column update of the
// unblocked Cholesky, the 8×4 tile solve of the small-solve TRSM, and the
// four full-panel packing kernels. On amd64
// with AVX2+FMA the dispatch wrappers (simd_amd64.go) route to hand-
// written assembly; everywhere else these generic bodies run.

// axpyGeneric computes y[i] += alpha·x[i] over len(x) elements.
func axpyGeneric(y, x []float64, alpha float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// rank4Generic applies a fused rank-4 update to y: with x holding four
// columns at the given stride (column t starts at x[t·stride]),
// y[i] += Σ_t alphas[t]·x[t·stride+i] over len(y) elements.
func rank4Generic(y, x []float64, stride int, alphas *[4]float64) {
	x0, x1, x2, x3 := x, x[stride:], x[2*stride:], x[3*stride:]
	a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// trsmTile8x4Generic solves one 8×4 tile of a triangular solve, held
// row-major in x (x[r·4+s] is row r, column s). It first subtracts the
// already-solved rows, x[r·4+s] -= Σ_p ap[p·8+r]·xs[p·4+s] over p in
// [0, k), with ap a packed 8-row micro-panel (packA layout) and xs the
// solved rows in x's row-major layout. It then solves the tile against
// the column-major 8×8 diagonal block d, whose diagonal holds reciprocal
// pivots: top down for a lower-triangular block, or bottom up over the
// upper triangle when backward is set.
func trsmTile8x4Generic(ap, xs []float64, k int, d *[mr * mr]float64, x *[mr * nr]float64, backward bool) {
	for p := 0; p < k; p++ {
		a := ap[p*mr : p*mr+mr : p*mr+mr]
		xp := xs[p*nr : p*nr+nr : p*nr+nr]
		for r, ar := range a {
			xr := x[r*nr : r*nr+nr : r*nr+nr]
			for s, v := range xp {
				xr[s] -= ar * v
			}
		}
	}
	for i := 0; i < mr; i++ {
		c, lo, hi := i, i+1, mr
		if backward {
			c = mr - 1 - i
			lo, hi = 0, c
		}
		xc := x[c*nr : c*nr+nr : c*nr+nr]
		for s := range xc {
			xc[s] *= d[c+c*mr]
		}
		for r := lo; r < hi; r++ {
			xr := x[r*nr : r*nr+nr : r*nr+nr]
			for s, v := range xc {
				xr[s] -= d[r+c*mr] * v
			}
		}
	}
}

// The full-panel packing kernels. Ragged edge panels stay on the scalar
// paths in pack.go; these cover the dominant full-height (mr) and
// full-width (nr) panels:
//
//	packPanelA8:  dst[p·8+r] = src[p·stride+r]   (contiguous 8-copy per p)
//	packPanelA8T: dst[p·8+r] = src[r·stride+p]   (8 strided streams interleaved)
//	packPanelB4:  dst[p·4+s] = src[s·stride+p]   (4 strided streams interleaved)
//	packPanelB4T: dst[p·4+s] = src[p·stride+s]   (contiguous 4-copy per p)

func packPanelA8Generic(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		copy(dst[p*mr:p*mr+mr], src[p*stride:p*stride+mr])
	}
}

func packPanelA8TGeneric(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		d := dst[p*mr : p*mr+mr : p*mr+mr]
		for r := 0; r < mr; r++ {
			d[r] = src[p+r*stride]
		}
	}
}

func packPanelB4Generic(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		d := dst[p*nr : p*nr+nr : p*nr+nr]
		d[0] = src[p]
		d[1] = src[p+stride]
		d[2] = src[p+2*stride]
		d[3] = src[p+3*stride]
	}
}

func packPanelB4TGeneric(dst, src []float64, k, stride int) {
	for p := 0; p < k; p++ {
		copy(dst[p*nr:p*nr+nr], src[p*stride:p*stride+nr])
	}
}

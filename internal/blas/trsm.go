package blas

import (
	"fmt"

	"lamb/internal/mat"
)

// Trsm solves the triangular system op(L)·X = alpha·B in place: on
// return B holds X. L is an m×m triangular matrix of which only the uplo
// triangle is referenced (non-unit diagonal), op(L) is L or Lᵀ per
// transL, and B is m×n.
//
// This is the left-side BLAS TRSM used by the least-squares expression's
// Cholesky solve (see lamb/internal/expr): after L := potrf(S), the two
// calls Trsm(Lower, false) and Trsm(Lower, true) apply S⁻¹.
//
// Solves of up to trsmNB = 64 rows, the sizes the computed batches send,
// run in trsmBlock, a register-blocked small-solve kernel: B is solved
// in 8×4 tiles held in vector registers, each tile first updated from
// the rows already solved with a GEMM-style multiply over the packed
// triangle, then solved against its 8×8 diagonal block. Lᵀ is
// transposed into the packed scratch once per call, so both orientations
// run at the same speed. Larger solves are blocked by 64: each diagonal
// block runs the small-solve kernel and the trailing updates are packed
// GEMMs.
func Trsm(uplo mat.Uplo, transL bool, alpha float64, l, b *mat.Dense) {
	m := l.Rows
	if l.Cols != m {
		panic(fmt.Sprintf("blas: trsm L is %dx%d, want square", l.Rows, l.Cols))
	}
	if b.Rows != m {
		panic(fmt.Sprintf("blas: trsm B has %d rows, want %d", b.Rows, m))
	}
	if m == 0 || b.Cols == 0 {
		return
	}
	if alpha != 1 {
		scaleMatrix(b, alpha)
	}
	// Effective orientation: a Lower matrix accessed transposed behaves
	// like an Upper solve and vice versa.
	lowerLike := (uplo == mat.Lower) != transL
	if lowerLike {
		// Forward substitution over block rows.
		for k0 := 0; k0 < m; k0 += trsmNB {
			k1 := min(k0+trsmNB, m)
			lkk := l.View(k0, k1, k0, k1)
			bk := b.View(k0, k1, 0, b.Cols)
			trsmBlock(uplo, transL, &lkk, &bk)
			if k1 < m {
				// Trailing update: B[k1:, :] -= op(L)[k1:, k0:k1] · X_k.
				var lik mat.Dense
				var transA bool
				if !transL {
					lik = l.View(k1, m, k0, k1)
					transA = false
				} else {
					lik = l.View(k0, k1, k1, m)
					transA = true
				}
				btail := b.View(k1, m, 0, b.Cols)
				Gemm(transA, false, -1, &lik, &bk, 1, &btail)
			}
		}
		return
	}
	// Backward substitution over block rows.
	for k1 := m; k1 > 0; k1 -= trsmNB {
		k0 := max(k1-trsmNB, 0)
		lkk := l.View(k0, k1, k0, k1)
		bk := b.View(k0, k1, 0, b.Cols)
		trsmBlock(uplo, transL, &lkk, &bk)
		if k0 > 0 {
			var lik mat.Dense
			var transA bool
			if !transL {
				lik = l.View(0, k0, k0, k1)
				transA = false
			} else {
				lik = l.View(k0, k1, 0, k0)
				transA = true
			}
			bhead := b.View(0, k0, 0, b.Cols)
			Gemm(transA, false, -1, &lik, &bk, 1, &bhead)
		}
	}
}

// trsmNB is the diagonal block size of the blocked Trsm driver and the
// largest solve trsmBlock accepts.
const trsmNB = 64

// trsmBlock solves op(T)·X = B in place for a triangular block of at
// most trsmNB rows. It is register-blocked: B is solved in strips of nr
// columns, and each strip in tiles of mr rows, top down for a
// lower-like op(T) and bottom up for an upper-like one. A tile lives in
// eight vector registers (trsmTile8x4): the strip's already-solved rows
// are subtracted as a GEMM of depth up to m, then the tile is solved
// against its mr×mr diagonal block.
//
// op(T) is packed once per call into pooled scratch. The off-diagonal
// part of each tile row becomes a packA micro-panel; packA's
// transposing path turns Lᵀ into contiguous columns, so both
// orientations run the same kernel. Each diagonal block becomes a dense
// column-major mr×mr block with reciprocal pivots, padded with the
// identity past row m. A strip of B is packed row-major (the packB
// layout) so solved rows feed the next tiles directly, then copied back.
// Only the referenced triangle of T is read, and no call allocates.
func trsmBlock(uplo mat.Uplo, transL bool, t, b *mat.Dense) {
	m, n := t.Rows, b.Cols
	forward := (uplo == mat.Lower) != transL
	nq := (m + mr - 1) / mr
	bufp := bufAPool.Get().(*[]float64)
	defer bufAPool.Put(bufp)
	buf := *bufp
	strip := buf[:nq*mr*nr]
	diag := buf[len(strip) : len(strip)+nq*mr*mr]
	panels := buf[len(strip)+len(diag):]
	// Rows past m are padding: zeroed here, they never update a real row.
	clear(strip[m*nr:])
	clear(diag)
	at := func(i, j int) float64 {
		if transL {
			return t.Data[j+i*t.Stride]
		}
		return t.Data[i+j*t.Stride]
	}
	// kRange is the already-solved row range [p0, p1) that updates tile
	// row q.
	kRange := func(q int) (p0, p1 int) {
		if forward {
			return 0, q * mr
		}
		return min(q*mr+mr, m), m
	}
	var panelOff [trsmNB / mr]int
	idx := 0
	for q := 0; q < nq; q++ {
		i0, i1 := q*mr, min(q*mr+mr, m)
		panelOff[q] = idx
		if p0, p1 := kRange(q); p1 > p0 {
			packA(panels[idx:], t, transL, i0, i1, p0, p1)
			idx += mr * (p1 - p0)
		}
		d := diag[q*mr*mr : q*mr*mr+mr*mr]
		for c := 0; c < mr; c++ {
			if i0+c >= i1 {
				d[c+c*mr] = 1
				continue
			}
			d[c+c*mr] = 1 / at(i0+c, i0+c)
			lo, hi := c+1, i1-i0
			if !forward {
				lo, hi = 0, c
			}
			for r := lo; r < hi; r++ {
				d[r+c*mr] = at(i0+r, i0+c)
			}
		}
	}
	for j0 := 0; j0 < n; j0 += nr {
		cols := min(nr, n-j0)
		packB(strip, b, false, 0, m, j0, j0+cols)
		for qq := 0; qq < nq; qq++ {
			q := qq
			if !forward {
				q = nq - 1 - qq
			}
			p0, p1 := kRange(q)
			trsmTile8x4(panels[panelOff[q]:], strip[p0*nr:], p1-p0,
				(*[mr * mr]float64)(diag[q*mr*mr:]), (*[mr * nr]float64)(strip[q*mr*nr:]), !forward)
		}
		for s := 0; s < cols; s++ {
			col := b.Data[(j0+s)*b.Stride:][:m]
			for i := range col {
				col[i] = strip[i*nr+s]
			}
		}
	}
}

// NaiveTrsm is the reference forward/backward substitution (column by
// column, no blocking). Semantics match Trsm.
func NaiveTrsm(uplo mat.Uplo, transL bool, alpha float64, l, b *mat.Dense) {
	m, n := l.Rows, b.Cols
	at := func(i, j int) float64 {
		if transL {
			return l.At(j, i)
		}
		return l.At(i, j)
	}
	lowerLike := (uplo == mat.Lower) != transL
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			b.Set(i, j, alpha*b.At(i, j))
		}
		if lowerLike {
			for i := 0; i < m; i++ {
				s := b.At(i, j)
				for p := 0; p < i; p++ {
					s -= at(i, p) * b.At(p, j)
				}
				b.Set(i, j, s/at(i, i))
			}
		} else {
			for i := m - 1; i >= 0; i-- {
				s := b.At(i, j)
				for p := i + 1; p < m; p++ {
					s -= at(i, p) * b.At(p, j)
				}
				b.Set(i, j, s/at(i, i))
			}
		}
	}
}

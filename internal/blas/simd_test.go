package blas

// Property tests pinning the SIMD fast paths to scalar references:
// packing on ragged shapes (non-multiples of mr/nr, sizes straddling the
// block sizes), the rank-4 potf2 against the textbook unblocked
// Cholesky, the register-blocked small-solve TRSM kernel against the
// naive substitution, and the axpy/rank4 primitives against their
// portable bodies.

import (
	"fmt"
	"math"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// packARef is the scalar reference packing (the pre-SIMD implementation,
// including zero-padding of ragged panels).
func packARef(buf []float64, a *mat.Dense, transA bool, i0, i1, p0, p1 int) {
	mcb, kcb := i1-i0, p1-p0
	idx := 0
	for q := 0; q < mcb; q += mr {
		rows := min(mr, mcb-q)
		for p := 0; p < kcb; p++ {
			for r := 0; r < rows; r++ {
				if !transA {
					buf[idx+r] = a.Data[i0+q+r+(p0+p)*a.Stride]
				} else {
					buf[idx+r] = a.Data[p0+p+(i0+q+r)*a.Stride]
				}
			}
			for r := rows; r < mr; r++ {
				buf[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packBRef is the scalar reference for packB.
func packBRef(buf []float64, b *mat.Dense, transB bool, p0, p1, j0, j1 int) {
	kcb, ncb := p1-p0, j1-j0
	idx := 0
	for q := 0; q < ncb; q += nr {
		cols := min(nr, ncb-q)
		for p := 0; p < kcb; p++ {
			for s := 0; s < cols; s++ {
				if !transB {
					buf[idx+s] = b.Data[p0+p+(j0+q+s)*b.Stride]
				} else {
					buf[idx+s] = b.Data[j0+q+s+(p0+p)*b.Stride]
				}
			}
			for s := cols; s < nr; s++ {
				buf[idx+s] = 0
			}
			idx += nr
		}
	}
}

func TestPackAMatchesReference(t *testing.T) {
	rng := xrand.New(0x9a01)
	// Parent bigger than any block so offset slices have parent stride.
	parent := mat.NewRandom(70, 70, rng)
	for _, trans := range []bool{false, true} {
		for _, mcb := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 31} {
			for _, kcb := range []int{1, 2, 5, 8, 16, 17, 33} {
				for _, off := range []int{0, 5} {
					i1, p1 := off+mcb, off+kcb
					// op(A) is mcb×kcb: stored dims depend on trans.
					if !trans {
						if i1 > parent.Rows || p1 > parent.Cols {
							continue
						}
					} else if p1 > parent.Rows || i1 > parent.Cols {
						continue
					}
					got := make([]float64, ((mcb+mr-1)/mr)*mr*kcb)
					want := make([]float64, len(got))
					packA(got, parent, trans, off, i1, off, p1)
					packARef(want, parent, trans, off, i1, off, p1)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("packA(trans=%v mcb=%d kcb=%d off=%d): buf[%d] = %v, want %v",
								trans, mcb, kcb, off, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestPackBMatchesReference(t *testing.T) {
	rng := xrand.New(0x9a02)
	parent := mat.NewRandom(70, 70, rng)
	for _, trans := range []bool{false, true} {
		for _, kcb := range []int{1, 2, 5, 8, 16, 17, 33} {
			for _, ncb := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31} {
				for _, off := range []int{0, 5} {
					p1, j1 := off+kcb, off+ncb
					if !trans {
						if p1 > parent.Rows || j1 > parent.Cols {
							continue
						}
					} else if j1 > parent.Rows || p1 > parent.Cols {
						continue
					}
					got := make([]float64, ((ncb+nr-1)/nr)*nr*kcb)
					want := make([]float64, len(got))
					packB(got, parent, trans, off, p1, off, j1)
					packBRef(want, parent, trans, off, p1, off, j1)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("packB(trans=%v kcb=%d ncb=%d off=%d): buf[%d] = %v, want %v",
								trans, kcb, ncb, off, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// potf2Ref is the textbook unblocked Cholesky (the pre-SIMD potf2).
func potf2Ref(a *mat.Dense) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.Data[j+j*a.Stride]
		for p := 0; p < j; p++ {
			v := a.Data[j+p*a.Stride]
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("not positive definite at %d", j)
		}
		d = math.Sqrt(d)
		a.Data[j+j*a.Stride] = d
		for i := j + 1; i < n; i++ {
			s := a.Data[i+j*a.Stride]
			for p := 0; p < j; p++ {
				s -= a.Data[i+p*a.Stride] * a.Data[j+p*a.Stride]
			}
			a.Data[i+j*a.Stride] = s / d
		}
	}
	return nil
}

func TestPotf2MatchesReferenceRaggedSizes(t *testing.T) {
	rng := xrand.New(0x9a03)
	// Sizes straddling the rank-4 panel width and the potrf block size.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 33, 63, 64, 65, 100, 129} {
		spd := mat.NewSPDRandom(n, rng)
		got := spd.Clone()
		want := spd.Clone()
		if err := NaivePotrf(got); err != nil {
			t.Fatalf("n=%d: potf2: %v", n, err)
		}
		if err := potf2Ref(want); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		// Compare lower triangles (the strict upper is untouched input).
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				g, w := got.At(i, j), want.At(i, j)
				if math.Abs(g-w) > 1e-10*math.Max(1, math.Abs(w)) {
					t.Fatalf("n=%d: L[%d,%d] = %v, want %v", n, i, j, g, w)
				}
			}
		}
	}
}

func TestPotf2RejectsIndefinite(t *testing.T) {
	// The rank-4 restructure must preserve the non-SPD error, with the
	// failing minor crossing panel boundaries.
	for _, n := range []int{3, 5, 9} {
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1)
		}
		a.Set(n-1, n-1, -1) // last pivot goes negative
		if err := NaivePotrf(a); err == nil {
			t.Fatalf("n=%d: indefinite matrix factored without error", n)
		}
	}
}

func TestTrsmRaggedVsNaive(t *testing.T) {
	rng := xrand.New(0x9a04)
	// Sizes below, at, and above the nb=64 block size, plus ragged ones.
	for _, m := range []int{1, 2, 3, 5, 8, 17, 31, 64, 65, 97} {
		for _, n := range []int{1, 2, 7, 33} {
			for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
				for _, trans := range []bool{false, true} {
					l := mat.NewRandom(m, m, rng)
					for i := 0; i < m; i++ {
						l.Set(i, i, 4+rng.Float64())
					}
					b := mat.NewRandom(m, n, rng)
					got := b.Clone()
					want := b.Clone()
					Trsm(uplo, trans, 1, l, got)
					NaiveTrsm(uplo, trans, 1, l, want)
					if d := mat.MaxAbsDiff(got, want); d > 1e-9 {
						t.Fatalf("trsm(m=%d n=%d %v trans=%v): max diff %g", m, n, uplo, trans, d)
					}
				}
			}
		}
	}
}

func TestTrsmRightLowerTransUnblockedSolves(t *testing.T) {
	rng := xrand.New(0x9a05)
	for _, m := range []int{1, 3, 8, 17} {
		for _, k := range []int{1, 2, 5, 16, 31} {
			l := mat.NewRandom(k, k, rng)
			for i := 0; i < k; i++ {
				l.Set(i, i, 4+rng.Float64())
			}
			mat.ZeroTriangle(l, mat.Lower)
			b := mat.NewRandom(m, k, rng)
			x := b.Clone()
			trsmRightLowerTransUnblocked(l, x)
			// Check X·Lᵀ == B.
			prod := mat.New(m, k)
			Gemm(false, true, 1, x, l, 0, prod)
			if d := mat.MaxAbsDiff(prod, b); d > 1e-10 {
				t.Fatalf("m=%d k=%d: residual %g", m, k, d)
			}
		}
	}
}

func TestSIMDPrimitivesMatchGeneric(t *testing.T) {
	rng := xrand.New(0x9a06)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100}
	for _, n := range lengths {
		x := make([]float64, n)
		y0 := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			y0[i] = 2*rng.Float64() - 1
		}
		alpha := 2*rng.Float64() - 1

		// axpy: dispatch vs generic.
		got := append([]float64(nil), y0...)
		want := append([]float64(nil), y0...)
		axpy(got, x, alpha)
		axpyGeneric(want, x, alpha)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-13 {
				t.Fatalf("axpy n=%d: y[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}

		// rank4: dispatch vs generic, strided columns.
		stride := n + 3
		xs := make([]float64, 3*stride+n+1)
		for i := range xs {
			xs[i] = 2*rng.Float64() - 1
		}
		alphas := [4]float64{rng.Float64(), -rng.Float64(), rng.Float64(), -rng.Float64()}
		got = append([]float64(nil), y0...)
		want = append([]float64(nil), y0...)
		rank4(got, xs, stride, &alphas)
		rank4Generic(want, xs, stride, &alphas)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-13 {
				t.Fatalf("rank4 n=%d: y[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestPackPanelFastPathsMatchGeneric(t *testing.T) {
	rng := xrand.New(0x9a07)
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33} {
		stride := 41
		// Large enough for every access pattern: the contiguous copies
		// read src[(k-1)·stride+width), the stream interleaves read
		// src[7·stride+k).
		src := make([]float64, (k+8)*stride)
		for i := range src {
			src[i] = 2*rng.Float64() - 1
		}
		check := func(name string, width int, f, ref func(dst, src []float64, k, stride int)) {
			t.Helper()
			got := make([]float64, width*k)
			want := make([]float64, width*k)
			f(got, src, k, stride)
			ref(want, src, k, stride)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: dst[%d] = %v, want %v", name, k, i, got[i], want[i])
				}
			}
		}
		check("packPanelA8", mr, packPanelA8, packPanelA8Generic)
		check("packPanelA8T", mr, packPanelA8T, packPanelA8TGeneric)
		check("packPanelB4", nr, packPanelB4, packPanelB4Generic)
		check("packPanelB4T", nr, packPanelB4T, packPanelB4TGeneric)
	}
}

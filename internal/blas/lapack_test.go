package blas

import (
	"math"
	"testing"
	"testing/quick"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// spdMatrix returns a well-conditioned symmetric positive definite n×n
// matrix (A·Aᵀ + n·I).
func spdMatrix(n int, rng *xrand.Rand) *mat.Dense {
	a := mat.NewRandom(n, n, rng)
	s := mat.New(n, n)
	NaiveGemm(false, true, 1, a, a, 0, s)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)+float64(n))
	}
	return s
}

// nanPadded returns a view of a copy of src inside a larger matrix whose
// padding (pad rows and columns on every side) holds NaN, together with
// that parent matrix.
func nanPadded(src *mat.Dense, pad int) (view mat.Dense, parent *mat.Dense) {
	parent = mat.New(src.Rows+2*pad, src.Cols+2*pad)
	for i := range parent.Data {
		parent.Data[i] = math.NaN()
	}
	view = parent.View(pad, pad+src.Rows, pad, pad+src.Cols)
	mat.Copy(&view, src)
	return view, parent
}

// TestTrsmMatchesNaive covers the small-solve kernel's tile edges
// (multiples of mr = 8 and one either side) and the blocked driver's
// block edges (trsmNB = 64), on compact operands and on strided views
// whose padding, and L's unreferenced triangle, hold NaN.
func TestTrsmMatchesNaive(t *testing.T) {
	rng := xrand.New(41)
	ms := []int{1, 3, 4, 5, 6, 7, 8, 9, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 130}
	for _, m := range ms {
		for _, n := range []int{1, 5, 40} {
			for _, uplo := range []mat.Uplo{mat.Lower, mat.Upper} {
				for _, trans := range []bool{false, true} {
					// Well-conditioned triangular factor: dominant diagonal.
					l := mat.NewRandom(m, m, rng)
					for i := 0; i < m; i++ {
						l.Set(i, i, 4+rng.Float64())
					}
					b0 := mat.NewRandom(m, n, rng)
					got := b0.Clone()
					want := b0.Clone()
					Trsm(uplo, trans, 1.5, l, got)
					NaiveTrsm(uplo, trans, 1.5, l, want)
					if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
						t.Fatalf("trsm(%v, trans=%v) m=%d n=%d: diff %g", uplo, trans, m, n, d)
					}

					lv, _ := nanPadded(l, 3)
					for j := 0; j < m; j++ {
						for i := 0; i < m; i++ {
							if (uplo == mat.Lower && i < j) || (uplo == mat.Upper && i > j) {
								lv.Set(i, j, math.NaN())
							}
						}
					}
					bv, bparent := nanPadded(b0, 2)
					Trsm(uplo, trans, 1.5, &lv, &bv)
					if d := mat.MaxAbsDiff(&bv, want); !(d <= 1e-10) {
						t.Fatalf("strided trsm(%v, trans=%v) m=%d n=%d: diff %g", uplo, trans, m, n, d)
					}
					for j := 0; j < bparent.Cols; j++ {
						for i := 0; i < bparent.Rows; i++ {
							inside := i >= 2 && i < 2+m && j >= 2 && j < 2+n
							if !inside && !math.IsNaN(bparent.At(i, j)) {
								t.Fatalf("strided trsm(%v, trans=%v) m=%d n=%d wrote padding (%d,%d)", uplo, trans, m, n, i, j)
							}
						}
					}
				}
			}
		}
	}
}

func TestTrsmSolvesSystem(t *testing.T) {
	// op(L)·X = B must hold after the solve.
	rng := xrand.New(42)
	const m, n = 90, 12
	l := mat.NewRandom(m, m, rng)
	for i := 0; i < m; i++ {
		l.Set(i, i, 5)
	}
	mat.ZeroTriangle(l, mat.Lower) // keep only lower triangle
	b := mat.NewRandom(m, n, rng)
	x := b.Clone()
	Trsm(mat.Lower, false, 1, l, x)
	check := mat.New(m, n)
	NaiveGemm(false, false, 1, l, x, 0, check)
	if d := mat.MaxAbsDiff(check, b); d > 1e-9 {
		t.Fatalf("L·X != B: diff %g", d)
	}
	// Transposed solve.
	x2 := b.Clone()
	Trsm(mat.Lower, true, 1, l, x2)
	NaiveGemm(true, false, 1, l, x2, 0, check)
	if d := mat.MaxAbsDiff(check, b); d > 1e-9 {
		t.Fatalf("Lᵀ·X != B: diff %g", d)
	}
}

func TestTrsmIgnoresOppositeTriangle(t *testing.T) {
	rng := xrand.New(43)
	const m = 40
	l := mat.NewRandom(m, m, rng)
	for i := 0; i < m; i++ {
		l.Set(i, i, 5)
	}
	b := mat.NewRandom(m, 7, rng)
	x1 := b.Clone()
	Trsm(mat.Lower, false, 1, l, x1)
	// Poison the upper triangle: the solve must not change.
	for j := 0; j < m; j++ {
		for i := 0; i < j; i++ {
			l.Set(i, j, math.NaN())
		}
	}
	x2 := b.Clone()
	Trsm(mat.Lower, false, 1, l, x2)
	if !mat.Equal(x1, x2) {
		t.Fatal("trsm referenced the opposite triangle")
	}
}

func TestTrsmPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Trsm(mat.Lower, false, 1, mat.New(3, 4), mat.New(3, 2)) },
		func() { Trsm(mat.Lower, false, 1, mat.New(3, 3), mat.New(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestPotrfMatchesNaive(t *testing.T) {
	rng := xrand.New(44)
	for _, n := range []int{1, 2, 7, 63, 64, 65, 150} {
		s := spdMatrix(n, rng)
		got := s.Clone()
		want := s.Clone()
		if err := Potrf(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := NaivePotrf(want); err != nil {
			t.Fatalf("n=%d naive: %v", n, err)
		}
		// Compare lower triangles only.
		mat.ZeroTriangle(got, mat.Lower)
		mat.ZeroTriangle(want, mat.Lower)
		if d := mat.MaxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: blocked vs unblocked diff %g", n, d)
		}
	}
}

func TestPotrfReconstructs(t *testing.T) {
	rng := xrand.New(45)
	const n = 120
	s := spdMatrix(n, rng)
	l := s.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	mat.ZeroTriangle(l, mat.Lower)
	recon := mat.New(n, n)
	NaiveGemm(false, true, 1, l, l, 0, recon)
	// Compare the lower triangle of the reconstruction with S.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Abs(recon.At(i, j)-s.At(i, j)) > 1e-8*float64(n) {
				t.Fatalf("L·Lᵀ != S at (%d,%d)", i, j)
			}
		}
	}
}

func TestPotrfDetectsIndefinite(t *testing.T) {
	s := mat.New(3, 3)
	s.Set(0, 0, 1)
	s.Set(1, 1, -1) // not positive definite
	s.Set(2, 2, 1)
	if err := Potrf(s); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	if err := Potrf(mat.New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestPotrfTrsmSolve(t *testing.T) {
	// The full Cholesky solve: X := S⁻¹·B via potrf + two trsm.
	rng := xrand.New(46)
	const n, k = 80, 9
	s := spdMatrix(n, rng)
	b := mat.NewRandom(n, k, rng)
	l := s.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	x := b.Clone()
	Trsm(mat.Lower, false, 1, l, x) // L·Y = B
	Trsm(mat.Lower, true, 1, l, x)  // Lᵀ·X = Y
	// Check S·X = B.
	check := mat.New(n, k)
	NaiveSymm(mat.Lower, 1, s, x, 0, check)
	if d := mat.MaxAbsDiff(check, b); d > 1e-7 {
		t.Fatalf("S·X != B: diff %g", d)
	}
}

func TestPotrfRandomShapesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 100)
		s := spdMatrix(n, rng)
		l := s.Clone()
		if err := Potrf(l); err != nil {
			return false
		}
		// Diagonal of L must be strictly positive.
		for i := 0; i < n; i++ {
			if !(l.At(i, i) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSym(t *testing.T) {
	rng := xrand.New(47)
	c := mat.NewRandom(5, 5, rng)
	a := mat.NewRandom(5, 5, rng)
	orig := c.Clone()
	AddSym(mat.Lower, c, a)
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			want := orig.At(i, j)
			if i >= j {
				want += a.At(i, j)
			}
			if c.At(i, j) != want {
				t.Fatalf("addsym wrong at (%d,%d)", i, j)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched addsym did not panic")
		}
	}()
	AddSym(mat.Lower, mat.New(2, 2), mat.New(3, 3))
}

package blas

import (
	"fmt"
	"testing"

	"lamb/internal/mat"
	"lamb/internal/xrand"
)

// Micro-benchmarks for the pure-Go BLAS kernels: the measured backend's
// raw performance, with GFLOP/s attached as a custom metric.

func benchGemm(b *testing.B, m, n, k int) {
	rng := xrand.New(1)
	a := mat.NewRandom(m, k, rng)
	bb := mat.NewRandom(k, n, rng)
	c := mat.New(m, n)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ReportAllocs() // pooled packing buffers: 0 allocs/op in steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, 1, a, bb, 0, c)
	}
	reportGFLOPs(b, 2*float64(m)*float64(n)*float64(k))
}

func reportGFLOPs(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("square-%d", s), func(b *testing.B) { benchGemm(b, s, s, s) })
	}
	b.Run("skinny-k-512x512x16", func(b *testing.B) { benchGemm(b, 512, 512, 16) })
	b.Run("skinny-n-512x16x512", func(b *testing.B) { benchGemm(b, 512, 16, 512) })
}

func BenchmarkGemmTransposed(b *testing.B) {
	const s = 256
	rng := xrand.New(2)
	a := mat.NewRandom(s, s, rng)
	bb := mat.NewRandom(s, s, rng)
	c := mat.New(s, s)
	for _, tc := range []struct {
		name           string
		transA, transB bool
	}{{"NT", false, true}, {"TN", true, false}, {"TT", true, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(tc.transA, tc.transB, 1, a, bb, 0, c)
			}
			reportGFLOPs(b, 2*float64(s)*float64(s)*float64(s))
		})
	}
}

func BenchmarkGemmSerialVsParallel(b *testing.B) {
	const s = 384
	rng := xrand.New(3)
	a := mat.NewRandom(s, s, rng)
	bb := mat.NewRandom(s, s, rng)
	c := mat.New(s, s)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			old := SetMaxWorkers(workers)
			defer SetMaxWorkers(old)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(false, false, 1, a, bb, 0, c)
			}
			reportGFLOPs(b, 2*float64(s)*float64(s)*float64(s))
		})
	}
}

func BenchmarkSyrk(b *testing.B) {
	for _, sh := range [][2]int{{128, 128}, {256, 64}, {256, 256}} {
		m, k := sh[0], sh[1]
		b.Run(fmt.Sprintf("m%d-k%d", m, k), func(b *testing.B) {
			rng := xrand.New(4)
			a := mat.NewRandom(m, k, rng)
			c := mat.New(m, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Syrk(mat.Lower, 1, a, 0, c)
			}
			reportGFLOPs(b, float64(m+1)*float64(m)*float64(k))
		})
	}
}

func BenchmarkSymm(b *testing.B) {
	for _, sh := range [][2]int{{128, 128}, {128, 512}, {256, 256}} {
		m, n := sh[0], sh[1]
		b.Run(fmt.Sprintf("m%d-n%d", m, n), func(b *testing.B) {
			rng := xrand.New(5)
			a := mat.NewSymmetricRandom(m, rng)
			bb := mat.NewRandom(m, n, rng)
			c := mat.New(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Symm(mat.Lower, 1, a, bb, 0, c)
			}
			reportGFLOPs(b, 2*float64(m)*float64(m)*float64(n))
		})
	}
}

func BenchmarkTri2Full(b *testing.B) {
	const s = 512
	c := mat.NewRandom(s, s, xrand.New(6))
	b.SetBytes(int64(8 * s * s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tri2Full(mat.Lower, c)
	}
}

func BenchmarkPackA(b *testing.B) {
	a := mat.NewRandom(mc, kc, xrand.New(7))
	buf := make([]float64, mc*kc)
	b.SetBytes(int64(8 * mc * kc))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packA(buf, a, false, 0, mc, 0, kc)
	}
}

func BenchmarkTrsm(b *testing.B) {
	// m²n flops per solve, in both orientations of a lower factor. Sizes
	// up to 64 run in the register-blocked small-solve kernel alone; 256
	// adds the blocked driver's GEMM trailing updates. Each iteration
	// restores B with an O(mn) copy, which is timed.
	for _, s := range []int{32, 48, 63, 256} {
		for _, trans := range []bool{false, true} {
			name := fmt.Sprintf("L-%d", s)
			if trans {
				name = fmt.Sprintf("LT-%d", s)
			}
			b.Run(name, func(b *testing.B) {
				rng := xrand.New(9)
				l := mat.NewRandom(s, s, rng)
				for i := 0; i < s; i++ {
					l.Set(i, i, 4+rng.Float64())
				}
				bb := mat.NewRandom(s, s, rng)
				x := mat.New(s, s)
				b.ReportAllocs()
				for b.Loop() {
					mat.Copy(x, bb)
					Trsm(mat.Lower, trans, 1, l, x)
				}
				reportGFLOPs(b, float64(s)*float64(s)*float64(s))
			})
		}
	}
}

func BenchmarkPotrf(b *testing.B) {
	// Dominated by the SYRK trailing update plus the blocked panel solve;
	// n³/3 flops.
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := xrand.New(10)
			spd := mat.NewSPDRandom(n, rng)
			a := mat.New(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mat.Copy(a, spd)
				b.StartTimer()
				if err := Potrf(a); err != nil {
					b.Fatal(err)
				}
			}
			nf := float64(n)
			reportGFLOPs(b, nf*(nf+1)*(2*nf+1)/6)
		})
	}
}

func BenchmarkNaiveGemmBaseline(b *testing.B) {
	// The unblocked reference: the gap to BenchmarkGemm/square-256 is the
	// payoff of packing and register blocking.
	const s = 256
	rng := xrand.New(8)
	a := mat.NewRandom(s, s, rng)
	bb := mat.NewRandom(s, s, rng)
	c := mat.New(s, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveGemm(false, false, 1, a, bb, 0, c)
	}
	reportGFLOPs(b, 2*float64(s)*float64(s)*float64(s))
}

package blas

import (
	"math"
	"testing"

	"lamb/internal/xrand"
)

// TestAsmKernelMatchesGeneric cross-checks the AVX2 micro-kernel against
// the portable Go kernel over odd and even k (both the unrolled loop and
// the tail path), including k values that leave the dual-unrolled loop
// with a remainder.
func TestAsmKernelMatchesGeneric(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA; assembly kernel disabled")
	}
	rng := xrand.New(42)
	for _, k := range []int{1, 2, 3, 7, 16, 17, 255, 256} {
		ap := make([]float64, mr*k)
		bp := make([]float64, nr*k)
		for i := range ap {
			ap[i] = rng.Float64() - 0.5
		}
		for i := range bp {
			bp[i] = rng.Float64() - 0.5
		}
		var asmOut, goOut [mr * nr]float64
		gemm8x4AVX(&ap[0], &bp[0], k, &asmOut)
		microKernel8x4Generic(ap, bp, k, &goOut)
		for i := range asmOut {
			// FMA keeps extra precision in the intermediate product, so
			// allow rounding-level differences.
			if d := math.Abs(asmOut[i] - goOut[i]); d > 1e-12*float64(k) {
				t.Fatalf("k=%d: out[%d] asm=%v go=%v", k, i, asmOut[i], goOut[i])
			}
		}
	}
}

// TestAsmKernelZeroK checks the k == 0 degenerate case clears the tile.
func TestAsmKernelZeroK(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA; assembly kernel disabled")
	}
	ap := []float64{1}
	bp := []float64{1}
	out := [mr * nr]float64{1: 5, 7: -3}
	gemm8x4AVX(&ap[0], &bp[0], 0, &out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %v after k=0 kernel, want 0", i, v)
		}
	}
}

// TestTrsmTileAsmMatchesGeneric cross-checks the AVX2 triangular tile
// solve against the portable kernel in both directions, over update
// depths k = 0 (diagonal block only) through several full panels.
func TestTrsmTileAsmMatchesGeneric(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("CPU lacks AVX2+FMA; assembly kernel disabled")
	}
	rng := xrand.New(43)
	for _, backward := range []bool{false, true} {
		for _, k := range []int{0, 1, 2, 7, 8, 40, 56} {
			ap := make([]float64, mr*k+1)
			xs := make([]float64, nr*k+1)
			for i := range ap {
				ap[i] = rng.Float64() - 0.5
			}
			for i := range xs {
				xs[i] = rng.Float64() - 0.5
			}
			var d [mr * mr]float64
			for i := range d {
				d[i] = rng.Float64() - 0.5
			}
			for c := 0; c < mr; c++ {
				d[c+c*mr] = 1 / (4 + rng.Float64())
			}
			var asmX, goX [mr * nr]float64
			for i := range asmX {
				asmX[i] = rng.Float64() - 0.5
			}
			goX = asmX
			trsmTile8x4AVX(&ap[0], &xs[0], k, &d[0], &asmX[0], backward)
			trsmTile8x4Generic(ap, xs, k, &d, &goX, backward)
			for i := range asmX {
				if diff := math.Abs(asmX[i] - goX[i]); diff > 1e-13*float64(k+1) {
					t.Fatalf("backward=%v k=%d: x[%d] asm=%v go=%v", backward, k, i, asmX[i], goX[i])
				}
			}
		}
	}
}

// Package blas is a from-scratch Go implementation of the three level-3
// BLAS kernels the paper builds its algorithms from — GEMM, SYRK, and
// SYMM — plus the triangle-mirroring data-movement step and the
// LAPACK-level extensions (POTRF, TRSM) used by the least-squares
// expression.
//
// The implementation follows the classic blocked/packed design (Goto,
// BLIS): operands are packed into contiguous micro-panels and a register-
// blocked 8×4 micro-kernel runs over them. On amd64 with AVX2+FMA the
// micro-kernel is hand-vectorized assembly (runtime-detected, with a
// portable Go fallback); everywhere else the pure-Go kernel runs. Packing
// buffers are pooled, so steady-state Gemm calls do not allocate. GEMM
// parallelises BLIS-style: B is packed once per (jc, pc) block into a
// shared buffer and goroutines fan out over the ic loop. SYRK and SYMM
// are built on the same macro-kernel machinery, which gives them genuinely
// different performance profiles from GEMM (slower ramps at small sizes,
// due to triangular bookkeeping and symmetric packing) — the very property
// the paper identifies as a driver of anomalies.
//
// This package is the repository's *measured* backend: experiments run on
// it time real kernel executions. The paper ran against MKL on a 10-core
// Xeon; these kernels are slower in absolute terms but expose the same
// structural effects (shape-dependent efficiency, kernel-dependent
// efficiency gaps, cache warm-up between calls).
package blas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lamb/internal/mat"
)

// Blocking parameters for the packed GEMM. Chosen for typical x86-64
// cache sizes: an MC×KC block of A (128×256 float64 = 256 KiB) fits in
// L2, a KC×NR sliver of B stays in L1.
const (
	mr = 8 // micro-kernel rows
	nr = 4 // micro-kernel cols
	mc = 128
	kc = 256
	nc = 2048
)

// Packing buffers are pooled so steady-state kernel calls do not allocate:
// a Gemm used to allocate a 256 KiB bufA and a 4 MiB bufB on every call.
var (
	bufAPool = sync.Pool{New: func() any { b := make([]float64, mc*kc); return &b }}
	bufBPool = sync.Pool{New: func() any { b := make([]float64, kc*nc); return &b }}
)

// maxWorkers caps GEMM parallelism. Zero means GOMAXPROCS.
var maxWorkers = 0

// SetMaxWorkers caps the number of goroutines used by the kernels.
// n <= 0 restores the default (GOMAXPROCS). It returns the previous cap.
// It is intended for benchmarking and tests and is not safe to call
// concurrently with running kernels.
func SetMaxWorkers(n int) int {
	old := maxWorkers
	maxWorkers = n
	return old
}

// Workers returns the effective worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset.
func Workers() int { return workers() }

func workers() int {
	w := maxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// opDims returns the dimensions of op(X) given trans.
func opDims(x *mat.Dense, trans bool) (r, c int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// parThreshold is the m·n·k product above which GEMM (and the SYRK/SYMM
// block drivers) go parallel; smaller problems run serially.
const parThreshold = 64 * 64 * 64

// Gemm computes C := alpha·op(A)·op(B) + beta·C, where op(X) is X or Xᵀ
// according to transA/transB. op(A) must be m×k, op(B) k×n, and C m×n,
// with m, n, k implied by the operand shapes. It panics on mismatched
// dimensions.
func Gemm(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	am, ak := opDims(a, transA)
	bk, bn := opDims(b, transB)
	if ak != bk {
		panic(fmt.Sprintf("blas: gemm inner dimension mismatch %d vs %d", ak, bk))
	}
	if c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("blas: gemm output %dx%d, want %dx%d", c.Rows, c.Cols, am, bn))
	}
	m, n, k := am, bn, ak
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleMatrix(c, beta)
		return
	}
	nw := workers()
	if nw > 1 && float64(m)*float64(n)*float64(k) >= parThreshold {
		gemmParallel(nw, transA, transB, alpha, a, b, beta, c)
		return
	}
	gemmSerial(transA, transB, alpha, a, b, beta, c)
}

// parallelTasks runs f(0), …, f(ntasks-1) on at most nw goroutines.
// Tasks are handed out dynamically, so uneven task costs still balance.
func parallelTasks(nw, ntasks int, f func(task int)) {
	ng := min(nw, ntasks)
	if ng <= 1 {
		for t := 0; t < ntasks; t++ {
			f(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(ng)
	for w := 0; w < ng; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= ntasks {
					return
				}
				f(t)
			}
		}()
	}
	wg.Wait()
}

// parallelCols splits [0, n) into roughly equal stripes aligned to the
// micro-kernel width and runs f over them on at most nw goroutines.
func parallelCols(nw, n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := (n + nw - 1) / nw
	// Align up to a multiple of nr so stripes don't split micro-tiles.
	if rem := chunk % nr; rem != 0 {
		chunk += nr - rem
	}
	nstripes := (n + chunk - 1) / chunk
	parallelTasks(nw, nstripes, func(s int) {
		lo := s * chunk
		f(lo, min(lo+chunk, n))
	})
}

// gemmParallel is the multi-goroutine blocked implementation. It follows
// the BLIS threading scheme: for each (jc, pc) block, B is packed *once*
// into a shared buffer, then workers fan out over the ic loop, each
// packing its own MC×KC block of A. When A has a single row block the
// workers split the packed-B micro-panel range instead, so wide-and-short
// products still parallelise.
func gemmParallel(nw int, transA, transB bool, alpha float64, aArg, bArg *mat.Dense, beta float64, cArg *mat.Dense) {
	// The fan-out closures must capture copies of the operand headers,
	// not the caller's pointers: if Gemm's parameters leaked into
	// goroutine closures, escape analysis would force every caller-side
	// view (mat.View in the block drivers) onto the heap, breaking the
	// kernels' zero-allocation guarantee.
	av, bv, cv := *aArg, *bArg, *cArg
	a, b, c := &av, &bv, &cv
	m, _ := opDims(a, transA)
	k, n := opDims(b, transB)
	bufBp := bufBPool.Get().(*[]float64)
	bufB := *bufBp
	defer bufBPool.Put(bufBp)
	nblkA := (m + mc - 1) / mc
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(bufB, b, transB, pc, pc+kcb, jc, jc+ncb)
			betaEff := 1.0
			if pc == 0 {
				betaEff = beta
			}
			if nblkA > 1 {
				parallelTasks(nw, nblkA, func(blk int) {
					ic := blk * mc
					mcb := min(mc, m-ic)
					bufAp := bufAPool.Get().(*[]float64)
					packA(*bufAp, a, transA, ic, ic+mcb, pc, pc+kcb)
					macroKernel(*bufAp, bufB, mcb, kcb, alpha, betaEff, c, ic, jc, 0, ncb)
					bufAPool.Put(bufAp)
				})
				continue
			}
			// Single row block: pack A once, split the jr loop.
			bufAp := bufAPool.Get().(*[]float64)
			packA(*bufAp, a, transA, 0, m, pc, pc+kcb)
			parallelCols(nw, ncb, func(q0, q1 int) {
				macroKernel(*bufAp, bufB, m, kcb, alpha, betaEff, c, 0, jc, q0, q1)
			})
			bufAPool.Put(bufAp)
		}
	}
}

// gemmSerial is the single-goroutine blocked implementation.
func gemmSerial(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	bufAp := bufAPool.Get().(*[]float64)
	bufBp := bufBPool.Get().(*[]float64)
	defer func() {
		bufAPool.Put(bufAp)
		bufBPool.Put(bufBp)
	}()
	bufA, bufB := *bufAp, *bufBp
	m, _ := opDims(a, transA)
	k, n := opDims(b, transB)
	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(bufB, b, transB, pc, pc+kcb, jc, jc+ncb)
			betaEff := 1.0
			if pc == 0 {
				betaEff = beta
			}
			for ic := 0; ic < m; ic += mc {
				mcb := min(mc, m-ic)
				packA(bufA, a, transA, ic, ic+mcb, pc, pc+kcb)
				macroKernel(bufA, bufB, mcb, kcb, alpha, betaEff, c, ic, jc, 0, ncb)
			}
		}
	}
}

// scaleMatrix computes X := beta·X, treating beta == 0 as assignment
// (clearing NaNs, matching BLAS semantics).
func scaleMatrix(x *mat.Dense, beta float64) {
	switch beta {
	case 1:
		return
	case 0:
		x.Zero()
	default:
		for j := 0; j < x.Cols; j++ {
			col := x.Data[j*x.Stride : j*x.Stride+x.Rows]
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

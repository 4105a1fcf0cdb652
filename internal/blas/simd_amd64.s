// AVX2/FMA SIMD primitives shared by the packing routines and the
// triangular kernels: contiguous axpy, the fused rank-4 column
// update of the unblocked Cholesky, the full-panel packing kernels
// (contiguous copies and 4-stream register transposes), and the 8×4
// tile solve of the small-solve TRSM. Feature detection is done once at
// startup via cpuHasAVX2FMA (ukernel_amd64.s); the Go wrappers in
// simd_amd64.go fall back to portable bodies.

#include "textflag.h"

// func axpyAVX(y, x *float64, n int, alpha float64)
//
// y[i] += alpha * x[i] for i in [0, n). 8 doubles per iteration, scalar
// tail.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y15
	MOVQ         CX, R9
	SHRQ         $3, R9
	JZ           tail

loop8:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VFMADD231PD (SI), Y15, Y0
	VFMADD231PD 32(SI), Y15, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        R9
	JNZ         loop8

tail:
	ANDQ $7, CX
	JZ   done

tail1:
	VMOVSD       (DI), X0
	VMOVSD       (SI), X1
	VFMADD231SD X1, X15, X0
	VMOVSD       X0, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail1

done:
	VZEROUPPER
	RET

// func rank4AVX(y, x *float64, stride, n int, alphas *[4]float64)
//
// y[i] += alphas[0]*x[i] + alphas[1]*x[stride+i] + alphas[2]*x[2*stride+i]
//       + alphas[3]*x[3*stride+i] for i in [0, n): the fused rank-4
// trailing update of the unblocked Cholesky panel factorisation.
TEXT ·rank4AVX(SB), NOSPLIT, $0-40
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         stride+16(FP), R8
	MOVQ         n+24(FP), CX
	MOVQ         alphas+32(FP), AX
	SHLQ         $3, R8
	LEAQ         (SI)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	LEAQ         (R10)(R8*1), R11
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ         CX, R12
	SHRQ         $2, R12
	JZ           tail

loop4:
	VMOVUPD     (DI), Y0
	VFMADD231PD (SI), Y12, Y0
	VFMADD231PD (R9), Y13, Y0
	VFMADD231PD (R10), Y14, Y0
	VFMADD231PD (R11), Y15, Y0
	VMOVUPD     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	ADDQ        $32, DI
	DECQ        R12
	JNZ         loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD       (DI), X0
	VMOVSD       (SI), X1
	VFMADD231SD X1, X12, X0
	VMOVSD       (R9), X1
	VFMADD231SD X1, X13, X0
	VMOVSD       (R10), X1
	VFMADD231SD X1, X14, X0
	VMOVSD       (R11), X1
	VFMADD231SD X1, X15, X0
	VMOVSD       X0, (DI)
	ADDQ        $8, SI
	ADDQ        $8, R9
	ADDQ        $8, R10
	ADDQ        $8, R11
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail1

done:
	VZEROUPPER
	RET

// func mergeTileSet8x4AVX(c *float64, stride int, tile *[32]float64, alpha float64)
//
// C[r, s] = alpha * tile[s*8+r] for a full 8x4 micro-tile, C column-major
// at the given stride. The betaEff==0 merge of the GEMM macro-kernel.
TEXT ·mergeTileSet8x4AVX(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         stride+8(FP), R8
	MOVQ         tile+16(FP), SI
	VBROADCASTSD alpha+24(FP), Y15
	SHLQ         $3, R8
	MOVQ         $4, CX

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    R8, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func mergeTileAdd8x4AVX(c *float64, stride int, tile *[32]float64, alpha float64)
//
// C[r, s] += alpha * tile[s*8+r] for a full 8x4 micro-tile. The
// betaEff==1 merge of the GEMM macro-kernel.
TEXT ·mergeTileAdd8x4AVX(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         stride+8(FP), R8
	MOVQ         tile+16(FP), SI
	VBROADCASTSD alpha+24(FP), Y15
	SHLQ         $3, R8
	MOVQ         $4, CX

loop:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VMOVUPD     (SI), Y2
	VMOVUPD     32(SI), Y3
	VFMADD231PD Y15, Y2, Y0
	VFMADD231PD Y15, Y3, Y1
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $64, SI
	ADDQ        R8, DI
	DECQ        CX
	JNZ         loop
	VZEROUPPER
	RET

// func packContig8AVX(dst, src *float64, k, stride int)
//
// k copies of 8 contiguous doubles: dst advances 8, src advances stride.
// The full-height packA micro-panel (no transpose).
TEXT ·packContig8AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packContig4AVX(dst, src *float64, k, stride int)
//
// k copies of 4 contiguous doubles: dst advances 4, src advances stride.
// The full-width packB micro-panel (transposed B).
TEXT ·packContig4AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8

loop:
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    R8, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func packStreams4AVX(dst, src *float64, k, stride, dstStride int)
//
// Interleaves four strided source streams (stream s starts at
// src[s*stride]) into dst[p*dstStride+s] for p in [0, k): 4x4 blocks are
// transposed in registers (VUNPCK + VPERM2F128), the remainder runs
// scalar. dstStride is 4 for packB panels and 8 for the two half-panels
// of a transposed packA.
TEXT ·packStreams4AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ stride+24(FP), R8
	MOVQ dstStride+32(FP), R13
	SHLQ $3, R8
	SHLQ $3, R13
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R13)(R13*2), DX
	MOVQ CX, R12
	SHRQ $2, R12
	JZ   tail

loop4:
	VMOVUPD    (SI), Y0
	VMOVUPD    (R9), Y1
	VMOVUPD    (R10), Y2
	VMOVUPD    (R11), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD    Y8, (DI)
	VMOVUPD    Y9, (DI)(R13*1)
	VMOVUPD    Y10, (DI)(R13*2)
	VMOVUPD    Y11, (DI)(DX*1)
	ADDQ       $32, SI
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	LEAQ       (DI)(R13*4), DI
	DECQ       R12
	JNZ        loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD (SI), X0
	VMOVSD X0, (DI)
	VMOVSD (R9), X0
	VMOVSD X0, 8(DI)
	VMOVSD (R10), X0
	VMOVSD X0, 16(DI)
	VMOVSD (R11), X0
	VMOVSD X0, 24(DI)
	ADDQ  $8, SI
	ADDQ  $8, R9
	ADDQ  $8, R10
	ADDQ  $8, R11
	ADDQ  R13, DI
	DECQ  CX
	JNZ   tail1

done:
	VZEROUPPER
	RET

// func trsmTile8x4AVX(ap, xs *float64, k int, d, x *float64, backward bool)
//
// Solves one 8×4 tile of a triangular solve held row-major at x (row r
// is x[4r:4r+4], one YMM register each). First the already-solved rows
// are subtracted, R_r -= sum_p ap[p*8+r] * xs[4p:4p+4] for p in [0, k)
// (ap a packed 8-row micro-panel, xs the solved rows in the same
// row-major layout). Then the tile is solved against the column-major
// 8x8 diagonal block d, whose diagonal holds reciprocal pivots: top down
// (R_c *= d[c,c]; R_r -= d[r,c]*R_c for r > c) or, when backward is set,
// bottom up over r < c.
TEXT ·trsmTile8x4AVX(SB), NOSPLIT, $0-41
	MOVQ         ap+0(FP), SI
	MOVQ         xs+8(FP), DI
	MOVQ         k+16(FP), CX
	MOVQ         d+24(FP), DX
	MOVQ         x+32(FP), BX
	VMOVUPD      (BX), Y0
	VMOVUPD      32(BX), Y1
	VMOVUPD      64(BX), Y2
	VMOVUPD      96(BX), Y3
	VMOVUPD      128(BX), Y4
	VMOVUPD      160(BX), Y5
	VMOVUPD      192(BX), Y6
	VMOVUPD      224(BX), Y7
	TESTQ        CX, CX
	JZ           solve

update:
	VMOVUPD      (DI), Y8
	VBROADCASTSD 0(SI), Y9
	VFNMADD231PD Y8, Y9, Y0
	VBROADCASTSD 8(SI), Y10
	VFNMADD231PD Y8, Y10, Y1
	VBROADCASTSD 16(SI), Y11
	VFNMADD231PD Y8, Y11, Y2
	VBROADCASTSD 24(SI), Y12
	VFNMADD231PD Y8, Y12, Y3
	VBROADCASTSD 32(SI), Y9
	VFNMADD231PD Y8, Y9, Y4
	VBROADCASTSD 40(SI), Y10
	VFNMADD231PD Y8, Y10, Y5
	VBROADCASTSD 48(SI), Y11
	VFNMADD231PD Y8, Y11, Y6
	VBROADCASTSD 56(SI), Y12
	VFNMADD231PD Y8, Y12, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          update

solve:
	CMPB         backward+40(FP), $0
	JNE          backsolve
	VBROADCASTSD 0(DX), Y9
	VMULPD       Y9, Y0, Y0
	VBROADCASTSD 8(DX), Y10
	VFNMADD231PD Y0, Y10, Y1
	VBROADCASTSD 16(DX), Y11
	VFNMADD231PD Y0, Y11, Y2
	VBROADCASTSD 24(DX), Y12
	VFNMADD231PD Y0, Y12, Y3
	VBROADCASTSD 32(DX), Y13
	VFNMADD231PD Y0, Y13, Y4
	VBROADCASTSD 40(DX), Y10
	VFNMADD231PD Y0, Y10, Y5
	VBROADCASTSD 48(DX), Y11
	VFNMADD231PD Y0, Y11, Y6
	VBROADCASTSD 56(DX), Y12
	VFNMADD231PD Y0, Y12, Y7
	VBROADCASTSD 72(DX), Y9
	VMULPD       Y9, Y1, Y1
	VBROADCASTSD 80(DX), Y10
	VFNMADD231PD Y1, Y10, Y2
	VBROADCASTSD 88(DX), Y11
	VFNMADD231PD Y1, Y11, Y3
	VBROADCASTSD 96(DX), Y12
	VFNMADD231PD Y1, Y12, Y4
	VBROADCASTSD 104(DX), Y13
	VFNMADD231PD Y1, Y13, Y5
	VBROADCASTSD 112(DX), Y10
	VFNMADD231PD Y1, Y10, Y6
	VBROADCASTSD 120(DX), Y11
	VFNMADD231PD Y1, Y11, Y7
	VBROADCASTSD 144(DX), Y9
	VMULPD       Y9, Y2, Y2
	VBROADCASTSD 152(DX), Y10
	VFNMADD231PD Y2, Y10, Y3
	VBROADCASTSD 160(DX), Y11
	VFNMADD231PD Y2, Y11, Y4
	VBROADCASTSD 168(DX), Y12
	VFNMADD231PD Y2, Y12, Y5
	VBROADCASTSD 176(DX), Y13
	VFNMADD231PD Y2, Y13, Y6
	VBROADCASTSD 184(DX), Y10
	VFNMADD231PD Y2, Y10, Y7
	VBROADCASTSD 216(DX), Y9
	VMULPD       Y9, Y3, Y3
	VBROADCASTSD 224(DX), Y10
	VFNMADD231PD Y3, Y10, Y4
	VBROADCASTSD 232(DX), Y11
	VFNMADD231PD Y3, Y11, Y5
	VBROADCASTSD 240(DX), Y12
	VFNMADD231PD Y3, Y12, Y6
	VBROADCASTSD 248(DX), Y13
	VFNMADD231PD Y3, Y13, Y7
	VBROADCASTSD 288(DX), Y9
	VMULPD       Y9, Y4, Y4
	VBROADCASTSD 296(DX), Y10
	VFNMADD231PD Y4, Y10, Y5
	VBROADCASTSD 304(DX), Y11
	VFNMADD231PD Y4, Y11, Y6
	VBROADCASTSD 312(DX), Y12
	VFNMADD231PD Y4, Y12, Y7
	VBROADCASTSD 360(DX), Y9
	VMULPD       Y9, Y5, Y5
	VBROADCASTSD 368(DX), Y10
	VFNMADD231PD Y5, Y10, Y6
	VBROADCASTSD 376(DX), Y11
	VFNMADD231PD Y5, Y11, Y7
	VBROADCASTSD 432(DX), Y9
	VMULPD       Y9, Y6, Y6
	VBROADCASTSD 440(DX), Y10
	VFNMADD231PD Y6, Y10, Y7
	VBROADCASTSD 504(DX), Y9
	VMULPD       Y9, Y7, Y7
	JMP          store

backsolve:
	VBROADCASTSD 504(DX), Y9
	VMULPD       Y9, Y7, Y7
	VBROADCASTSD 448(DX), Y10
	VFNMADD231PD Y7, Y10, Y0
	VBROADCASTSD 456(DX), Y11
	VFNMADD231PD Y7, Y11, Y1
	VBROADCASTSD 464(DX), Y12
	VFNMADD231PD Y7, Y12, Y2
	VBROADCASTSD 472(DX), Y13
	VFNMADD231PD Y7, Y13, Y3
	VBROADCASTSD 480(DX), Y10
	VFNMADD231PD Y7, Y10, Y4
	VBROADCASTSD 488(DX), Y11
	VFNMADD231PD Y7, Y11, Y5
	VBROADCASTSD 496(DX), Y12
	VFNMADD231PD Y7, Y12, Y6
	VBROADCASTSD 432(DX), Y9
	VMULPD       Y9, Y6, Y6
	VBROADCASTSD 384(DX), Y10
	VFNMADD231PD Y6, Y10, Y0
	VBROADCASTSD 392(DX), Y11
	VFNMADD231PD Y6, Y11, Y1
	VBROADCASTSD 400(DX), Y12
	VFNMADD231PD Y6, Y12, Y2
	VBROADCASTSD 408(DX), Y13
	VFNMADD231PD Y6, Y13, Y3
	VBROADCASTSD 416(DX), Y10
	VFNMADD231PD Y6, Y10, Y4
	VBROADCASTSD 424(DX), Y11
	VFNMADD231PD Y6, Y11, Y5
	VBROADCASTSD 360(DX), Y9
	VMULPD       Y9, Y5, Y5
	VBROADCASTSD 320(DX), Y10
	VFNMADD231PD Y5, Y10, Y0
	VBROADCASTSD 328(DX), Y11
	VFNMADD231PD Y5, Y11, Y1
	VBROADCASTSD 336(DX), Y12
	VFNMADD231PD Y5, Y12, Y2
	VBROADCASTSD 344(DX), Y13
	VFNMADD231PD Y5, Y13, Y3
	VBROADCASTSD 352(DX), Y10
	VFNMADD231PD Y5, Y10, Y4
	VBROADCASTSD 288(DX), Y9
	VMULPD       Y9, Y4, Y4
	VBROADCASTSD 256(DX), Y10
	VFNMADD231PD Y4, Y10, Y0
	VBROADCASTSD 264(DX), Y11
	VFNMADD231PD Y4, Y11, Y1
	VBROADCASTSD 272(DX), Y12
	VFNMADD231PD Y4, Y12, Y2
	VBROADCASTSD 280(DX), Y13
	VFNMADD231PD Y4, Y13, Y3
	VBROADCASTSD 216(DX), Y9
	VMULPD       Y9, Y3, Y3
	VBROADCASTSD 192(DX), Y10
	VFNMADD231PD Y3, Y10, Y0
	VBROADCASTSD 200(DX), Y11
	VFNMADD231PD Y3, Y11, Y1
	VBROADCASTSD 208(DX), Y12
	VFNMADD231PD Y3, Y12, Y2
	VBROADCASTSD 144(DX), Y9
	VMULPD       Y9, Y2, Y2
	VBROADCASTSD 128(DX), Y10
	VFNMADD231PD Y2, Y10, Y0
	VBROADCASTSD 136(DX), Y11
	VFNMADD231PD Y2, Y11, Y1
	VBROADCASTSD 72(DX), Y9
	VMULPD       Y9, Y1, Y1
	VBROADCASTSD 64(DX), Y10
	VFNMADD231PD Y1, Y10, Y0
	VBROADCASTSD 0(DX), Y9
	VMULPD       Y9, Y0, Y0

store:
	VMOVUPD      Y0, 0(BX)
	VMOVUPD      Y1, 32(BX)
	VMOVUPD      Y2, 64(BX)
	VMOVUPD      Y3, 96(BX)
	VMOVUPD      Y4, 128(BX)
	VMOVUPD      Y5, 160(BX)
	VMOVUPD      Y6, 192(BX)
	VMOVUPD      Y7, 224(BX)
	VZEROUPPER
	RET

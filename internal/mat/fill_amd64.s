// AVX Gram-matrix tile kernel for FillSPD. It keeps separate VMULPD and
// VADDPD, never FMA, so every element rounds exactly like the portable
// loop's `acc += gi * gj`.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	// XGETBV(0): XCR0 bits 1 and 2 — XMM and YMM state enabled by the OS.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gramTile8x4AVX(a, b *float64, k, stride int, out *[32]float64)
//
// out[r+8*s] = sum_p a[p*stride+r] * b[p*stride+s] for p in [0, k), in
// order. Column s accumulates in Y(2s) (rows 0-3) and Y(2s+1) (rows 4-7).
TEXT ·gramTile8x4AVX(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   k+16(FP), CX
	MOVQ   stride+24(FP), R8
	MOVQ   out+32(FP), DX
	SHLQ   $3, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     done

loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VBROADCASTSD 8(DI), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         R8, SI
	ADDQ         R8, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

#include "textflag.h"

// func signGroupsAVX2(c0, c1, c2, c3 *uint64, n int, pw *uint64, m int, acc *int64)
//
// Registers across the family loop:
//   R8-R11  c0..c3 of the current group of four families
//   BX      families left (a multiple of 4)
//   SI, CX  the power limbs and their id count
//   DI      acc of the current group
//   Y8      2^61-1 in every lane, Y9 1 in every lane
// Per group: Y0 a0, Y1/Y2 a1 low/high limbs, Y3/Y4 a2, Y5/Y6 a3,
// Y7 the count of odd evaluations. Per id: Y10/Y11 a power's limbs,
// Y12 the low*low sum LL, Y13 the cross sum M, Y14 the high*high sum HH,
// Y15 scratch.
TEXT ·signGroupsAVX2(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), R8
	MOVQ c1+8(FP), R9
	MOVQ c2+16(FP), R10
	MOVQ c3+24(FP), R11
	MOVQ n+32(FP), BX
	MOVQ pw+40(FP), SI
	MOVQ m+48(FP), CX
	MOVQ acc+56(FP), DI

	VPCMPEQQ Y8, Y8, Y8
	VPSRLQ   $63, Y8, Y9 // 1
	VPSRLQ   $3, Y8, Y8  // 2^61-1

group:
	VPSRLQ  $30, Y8, Y10 // 2^31-1
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VPSRLQ  $31, Y1, Y2
	VPAND   Y10, Y1, Y1
	VMOVDQU (R10), Y3
	VPSRLQ  $31, Y3, Y4
	VPAND   Y10, Y3, Y3
	VMOVDQU (R11), Y5
	VPSRLQ  $31, Y5, Y6
	VPAND   Y10, Y5, Y5
	VPXOR   Y7, Y7, Y7
	MOVQ    SI, AX
	MOVQ    CX, DX

id:
	// a1*i
	VPBROADCASTQ 0(AX), Y10
	VPBROADCASTQ 8(AX), Y11
	VPMULUDQ     Y10, Y1, Y12
	VPMULUDQ     Y10, Y2, Y13
	VPMULUDQ     Y11, Y1, Y15
	VPADDQ       Y15, Y13, Y13
	VPMULUDQ     Y11, Y2, Y14

	// + a2*i^2
	VPBROADCASTQ 16(AX), Y10
	VPBROADCASTQ 24(AX), Y11
	VPMULUDQ     Y10, Y3, Y15
	VPADDQ       Y15, Y12, Y12
	VPMULUDQ     Y10, Y4, Y15
	VPADDQ       Y15, Y13, Y13
	VPMULUDQ     Y11, Y3, Y15
	VPADDQ       Y15, Y13, Y13
	VPMULUDQ     Y11, Y4, Y15
	VPADDQ       Y15, Y14, Y14

	// + a3*i^3
	VPBROADCASTQ 32(AX), Y10
	VPBROADCASTQ 40(AX), Y11
	VPMULUDQ     Y10, Y5, Y15
	VPADDQ       Y15, Y12, Y12
	VPMULUDQ     Y10, Y6, Y15
	VPADDQ       Y15, Y13, Y13
	VPMULUDQ     Y11, Y5, Y15
	VPADDQ       Y15, Y13, Y13
	VPMULUDQ     Y11, Y6, Y15
	VPADDQ       Y15, Y14, Y14

	// T = (LL mod 2^61) + (LL>>61) + 2*HH + (M>>30) + ((M mod 2^30)<<31) + a0
	VPSRLQ $61, Y12, Y15
	VPAND  Y8, Y12, Y12
	VPADDQ Y15, Y12, Y12
	VPADDQ Y14, Y14, Y14
	VPADDQ Y14, Y12, Y12
	VPSRLQ $30, Y13, Y15
	VPADDQ Y15, Y12, Y12
	VPSLLQ $34, Y13, Y13
	VPSRLQ $3, Y13, Y13
	VPADDQ Y13, Y12, Y12
	VPADDQ Y0, Y12, Y12

	// s = (T mod 2^61) + (T>>61) < 2^61+8; count (s ^ ((s+1)>>61)) & 1
	VPSRLQ $61, Y12, Y15
	VPAND  Y8, Y12, Y12
	VPADDQ Y15, Y12, Y12
	VPADDQ Y9, Y12, Y15
	VPSRLQ $61, Y15, Y15
	VPXOR  Y15, Y12, Y12
	VPAND  Y9, Y12, Y12
	VPADDQ Y12, Y7, Y7

	ADDQ $48, AX
	DECQ DX
	JNZ  id

	// acc[j] += m - 2*odd[j]
	VPADDQ       Y7, Y7, Y7
	VPBROADCASTQ m+48(FP), Y10
	VPSUBQ       Y7, Y10, Y10
	VPADDQ       (DI), Y10, Y10
	VMOVDQU      Y10, (DI)

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, DI
	SUBQ $4, BX
	JNZ  group

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

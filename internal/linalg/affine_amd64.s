#include "textflag.h"

// The AVX2 kernel for the whole four-row blocks of a projection. The
// layout is affine.go's: element b*n+j of cblk holds rows 4b..4b+3 of
// column j of C, and element b*nr+4g+i of the gain holds the gain of row
// 4b+i on columns 4g..4g+3, zero past column n. Every product is a
// VMULPD with the matrix entry as first source, every residual update a
// VADDPD and every gain update a VSUBPD with the running value first;
// nothing is fused, and -d is a sign-bit XOR. These are the instructions
// the Go compiler emits for Project's block loops, lane by lane, so the
// two give the same bits, NaN payloads included.

// affineTail<>+32-8t is the mask of the first t lanes of a group.
DATA affineTail<>+0(SB)/8, $-1
DATA affineTail<>+8(SB)/8, $-1
DATA affineTail<>+16(SB)/8, $-1
DATA affineTail<>+24(SB)/8, $-1
DATA affineTail<>+32(SB)/8, $0
DATA affineTail<>+40(SB)/8, $0
DATA affineTail<>+48(SB)/8, $0
DATA affineTail<>+56(SB)/8, $0
GLOBL affineTail<>(SB), RODATA|NOPTR, $64

// GUPD subtracts the gain row at off(R9) times the broadcast residual
// R from the four columns in Y8, using T.
#define GUPD(off, R, T) \
	VMOVUPD off(R9), T; \
	VMULPD  R, T, T;    \
	VSUBPD  T, Y8, Y8

// GROUP subtracts the four gain rows of a group from Y8.
#define GROUP \
	GUPD(0, Y4, Y9);   \
	GUPD(32, Y5, Y10); \
	GUPD(64, Y6, Y11); \
	GUPD(96, Y7, Y12)

// func projectAVX2(c, gain *[4]float64, d, src, dst *float64, n, blocks int)
//
// Projects the first 4*blocks rows, a block at a time: its four
// residuals -d + sum_j c_j src[j] in one accumulator, columns in
// ascending order, then each group of four columns of the first block's
// src, or of dst after it, less the block's gain rows in ascending row
// order, stored to dst. The last n%4 columns take masked loads and
// stores, so nothing past src[:n] or dst[:n] is read or written. n > 0.
//
// R8 and R9 walk cblk and the gain, R10 d; SI = src, DI = dst, DX the
// vector a block starts from; CX = n, R11 = n&^3, R12 = n%4, BX counts
// the blocks left; Y13 is the sign mask, Y14 the tail's lane mask.
TEXT ·projectAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), R8
	MOVQ gain+8(FP), R9
	MOVQ d+16(FP), R10
	MOVQ src+24(FP), SI
	MOVQ dst+32(FP), DI
	MOVQ n+40(FP), CX
	MOVQ blocks+48(FP), BX
	MOVQ SI, DX
	MOVQ CX, R11
	ANDQ $-4, R11
	MOVQ CX, R12
	ANDQ $3, R12
	MOVQ R12, AX
	NEGQ AX
	LEAQ affineTail<>+32(SB), R13
	VMOVUPD (R13)(AX*8), Y14
	VPCMPEQQ Y13, Y13, Y13
	VPSLLQ   $63, Y13, Y13

block:
	VMOVUPD (R10), Y0
	VXORPD  Y13, Y0, Y0
	XORQ    AX, AX

	PCALIGN $64
residual:
	VBROADCASTSD (SI)(AX*8), Y1
	VMOVUPD      (R8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         $32, R8
	INCQ         AX
	CMPQ         AX, CX
	JLT          residual

	VPERMPD $0x00, Y0, Y4
	VPERMPD $0x55, Y0, Y5
	VPERMPD $0xaa, Y0, Y6
	VPERMPD $0xff, Y0, Y7
	XORQ    AX, AX
	CMPQ    AX, R11
	JGE     tail

	PCALIGN $64
groups:
	VMOVUPD (DX)(AX*8), Y8
	GROUP
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $128, R9
	ADDQ    $4, AX
	CMPQ    AX, R11
	JLT     groups

tail:
	TESTQ R12, R12
	JEQ   next
	VMASKMOVPD (DX)(AX*8), Y14, Y8
	GROUP
	VMASKMOVPD Y8, Y14, (DI)(AX*8)
	ADDQ       $128, R9

next:
	ADDQ $32, R10
	MOVQ DI, DX
	DECQ BX
	JNE  block
	VZEROUPPER
	RET

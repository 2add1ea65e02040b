#include "textflag.h"

// AVX2 kernels for the whole panels of a Cholesky solve. The layout is
// cholesky.go's: panel p holds rows 4p..4p+3, its element j (32 bytes,
// at element 2p(p+1)+j of the factor) is column j of those rows, and its
// last four elements, columns 4p..4p+3, are the 4x4 diagonal block with
// the reciprocal diagonal. Every product is a VMULPD or VMULSD with the
// factor entry as first source, and the diagonal's multiply has the
// right-hand side first; every update is a VSUBPD or VSUBSD with the
// right-hand side first; nothing is fused. These are the instructions the
// Go compiler emits for forwardGo and backwardGo, lane by lane, so the
// two give the same bits, NaN payloads included.

// FUPD subtracts the product of the factor column at co(P)(R12*1) and
// the broadcast y in Y4 from the accumulator ACC, using T.
#define FUPD(co, P, ACC, T) \
	VMOVUPD co(P)(R12*1), T; \
	VMULPD  Y4, T, T;        \
	VSUBPD  T, ACC, ACC

// FCOLn takes column co of the panels R8..R11 (last n of them), with
// y = yo(DX), into the accumulators Y0..Y3 (last n of them).
#define FCOL4(yo, co) \
	VBROADCASTSD yo(DX), Y4;   \
	FUPD(co, R8, Y0, Y5);      \
	FUPD(co, R9, Y1, Y6);      \
	FUPD(co, R10, Y2, Y7);     \
	FUPD(co, R11, Y3, Y8)

#define FCOL3(yo, co) \
	VBROADCASTSD yo(DX), Y4;   \
	FUPD(co, R9, Y1, Y6);      \
	FUPD(co, R10, Y2, Y7);     \
	FUPD(co, R11, Y3, Y8)

#define FCOL2(yo, co) \
	VBROADCASTSD yo(DX), Y4;   \
	FUPD(co, R10, Y2, Y7);     \
	FUPD(co, R11, Y3, Y8)

#define FCOL1(yo, co, P, ACC) \
	VBROADCASTSD yo(DX), Y4;   \
	FUPD(co, P, ACC, Y5)

// FDIAG solves the 4x4 diagonal block whose first column is at C for
// the four rows at B, in place: forwardGo's triangle, row by row.
#define FDIAG(C, B) \
	VMOVSD (B), X8;               \
	VMULSD (C), X8, X8;           \
	VMOVSD 8(C), X9;              \
	VMULSD X8, X9, X9;            \
	VMOVSD 8(B), X10;             \
	VSUBSD X9, X10, X10;          \
	VMULSD 40(C), X10, X10;       \
	VMOVSD 16(C), X9;             \
	VMULSD X8, X9, X9;            \
	VMOVSD 16(B), X11;            \
	VSUBSD X9, X11, X11;          \
	VMOVSD 48(C), X9;             \
	VMULSD X10, X9, X9;           \
	VSUBSD X9, X11, X11;          \
	VMULSD 80(C), X11, X11;       \
	VMOVSD 24(C), X9;             \
	VMULSD X8, X9, X9;            \
	VMOVSD 24(B), X12;            \
	VSUBSD X9, X12, X12;          \
	VMOVSD 56(C), X9;             \
	VMULSD X10, X9, X9;           \
	VSUBSD X9, X12, X12;          \
	VMOVSD 88(C), X9;             \
	VMULSD X11, X9, X9;           \
	VSUBSD X9, X12, X12;          \
	VMULSD 120(C), X12, X12;      \
	VMOVSD X8, (B);               \
	VMOVSD X10, 8(B);             \
	VMOVSD X11, 16(B);            \
	VMOVSD X12, 24(B)

// func forwardAVX2(l *[4]float64, b *float64, panels int)
//
// Solves the first 4*panels rows of L y = b in place. Four panels (16
// rows) advance per pass over y: each y[k] is broadcast once and feeds
// four accumulators, one per panel, whose subtract chains are
// independent. The triangle of the 16 rows follows, a diagonal block at
// a time. Panels left over past a multiple of four take one pass each.
//
// AX = 128p, the byte offset of column 4p in a panel, p the pass's first
// panel; BX = &b[4p]; R8..R11 = panels p..p+3; R12 and DX walk the
// columns and y in the column loop.
TEXT ·forwardAVX2(SB), NOSPLIT, $0-24
	MOVQ l+0(FP), R8
	MOVQ b+8(FP), DI
	MOVQ panels+16(FP), CX
	XORQ AX, AX
	MOVQ DI, BX

four:
	CMPQ CX, $4
	JLT  one
	LEAQ 128(R8)(AX*1), R9
	LEAQ 256(R9)(AX*1), R10
	LEAQ 384(R10)(AX*1), R11
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	XORQ R12, R12
	MOVQ DI, DX
	CMPQ R12, AX
	JGE  fourdiag

	PCALIGN $64
fourloop:
	FCOL4(0, 0)
	FCOL4(8, 32)
	FCOL4(16, 64)
	FCOL4(24, 96)
	ADDQ $32, DX
	ADDQ $128, R12
	CMPQ R12, AX
	JLT  fourloop

fourdiag:
	// R12 = AX and DX = BX: the 16x16 triangle, panel by panel.
	VMOVUPD Y0, (BX)
	LEAQ (R8)(AX*1), R13
	FDIAG(R13, BX)
	FCOL3(0, 0)
	FCOL3(8, 32)
	FCOL3(16, 64)
	FCOL3(24, 96)
	VMOVUPD Y1, 32(BX)
	LEAQ 128(R9)(AX*1), R13
	LEAQ 32(BX), SI
	FDIAG(R13, SI)
	FCOL2(32, 128)
	FCOL2(40, 160)
	FCOL2(48, 192)
	FCOL2(56, 224)
	VMOVUPD Y2, 64(BX)
	LEAQ 256(R10)(AX*1), R13
	LEAQ 64(BX), SI
	FDIAG(R13, SI)
	FCOL1(64, 256, R11, Y3)
	FCOL1(72, 288, R11, Y3)
	FCOL1(80, 320, R11, Y3)
	FCOL1(88, 352, R11, Y3)
	VMOVUPD Y3, 96(BX)
	LEAQ 384(R11)(AX*1), R13
	LEAQ 96(BX), SI
	FDIAG(R13, SI)
	LEAQ 512(R11)(AX*1), R8
	ADDQ $512, AX
	ADDQ $128, BX
	SUBQ $4, CX
	JMP  four

one:
	TESTQ CX, CX
	JEQ   done
	VMOVUPD (BX), Y0
	XORQ R12, R12
	MOVQ DI, DX
	CMPQ R12, AX
	JGE  onediag

	PCALIGN $64
oneloop:
	FCOL1(0, 0, R8, Y0)
	FCOL1(8, 32, R8, Y0)
	FCOL1(16, 64, R8, Y0)
	FCOL1(24, 96, R8, Y0)
	ADDQ $32, DX
	ADDQ $128, R12
	CMPQ R12, AX
	JLT  oneloop

onediag:
	VMOVUPD Y0, (BX)
	LEAQ (R8)(AX*1), R13
	FDIAG(R13, BX)
	LEAQ 128(R8)(AX*1), R8
	ADDQ $128, AX
	ADDQ $32, BX
	DECQ CX
	JMP  one

done:
	VZEROUPPER
	RET

// BDIAG solves the 4x4 diagonal block whose first column is at C for
// the four rows at B, in place, last row first: backwardGo's triangle.
// It leaves x0..x3 in Y9 for the panel's column loop.
#define BDIAG(C, B) \
	VMOVSD 24(B), X8;             \
	VMULSD 120(C), X8, X8;        \
	VMOVSD 88(C), X11;            \
	VMULSD X8, X11, X11;          \
	VMOVSD 16(B), X10;            \
	VSUBSD X11, X10, X10;         \
	VMULSD 80(C), X10, X10;       \
	VMOVSD 56(C), X11;            \
	VMULSD X8, X11, X11;          \
	VMOVSD 8(B), X12;             \
	VSUBSD X11, X12, X12;         \
	VMOVSD 48(C), X11;            \
	VMULSD X10, X11, X11;         \
	VSUBSD X11, X12, X12;         \
	VMULSD 40(C), X12, X12;       \
	VMOVSD 24(C), X11;            \
	VMULSD X8, X11, X11;          \
	VMOVSD (B), X13;              \
	VSUBSD X11, X13, X13;         \
	VMOVSD 16(C), X11;            \
	VMULSD X10, X11, X11;         \
	VSUBSD X11, X13, X13;         \
	VMOVSD 8(C), X11;             \
	VMULSD X12, X11, X11;         \
	VSUBSD X11, X13, X13;         \
	VMULSD (C), X13, X13;         \
	VMOVSD X13, (B);              \
	VMOVSD X12, 8(B);             \
	VMOVSD X10, 16(B);            \
	VMOVSD X8, 24(B);             \
	VUNPCKLPD X12, X13, X14;      \
	VUNPCKLPD X8, X10, X11;       \
	VINSERTF128 $1, X11, Y14, Y9

// func backwardAVX2(l *[4]float64, b *float64, panels int)
//
// Solves L^T x = b over the first 4*panels rows in place, once b has
// taken every row below them. Panels retire last first: the diagonal
// block gives the panel's four x, and each four columns' entries,
// multiplied by them, are transposed so that b[k..k+3] take the rows'
// products in descending row order, as in backwardGo. The columns run
// last first, so the next panel's block is updated first.
//
// AX = 128p, p the panel; R8 = panel p; BX = &b[4p]; R12 and DX walk
// the columns and b in the column loop.
TEXT ·backwardAVX2(SB), NOSPLIT, $0-24
	MOVQ l+0(FP), R8
	MOVQ b+8(FP), DI
	MOVQ panels+16(FP), CX
	LEAQ -1(CX), AX
	SHLQ $7, AX
	MOVQ AX, DX
	IMULQ CX, DX
	SHRQ $1, DX
	ADDQ DX, R8
	MOVQ AX, BX
	SHRQ $2, BX
	ADDQ DI, BX

panel:
	LEAQ (R8)(AX*1), R13
	BDIAG(R13, BX)
	MOVQ AX, R12
	MOVQ BX, DX
	TESTQ R12, R12
	JEQ  next

	PCALIGN $64
cols:
	SUBQ $128, R12
	SUBQ $32, DX
	VMOVUPD (R8)(R12*1), Y0
	VMULPD  Y9, Y0, Y0
	VMOVUPD 32(R8)(R12*1), Y1
	VMULPD  Y9, Y1, Y1
	VMOVUPD 64(R8)(R12*1), Y2
	VMULPD  Y9, Y2, Y2
	VMOVUPD 96(R8)(R12*1), Y3
	VMULPD  Y9, Y3, Y3
	// Y0..Y3 hold columns k..k+3, lane r the product of row 4p+r:
	// transpose to rows.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD (DX), Y8
	VSUBPD  Y3, Y8, Y8
	VSUBPD  Y2, Y8, Y8
	VSUBPD  Y1, Y8, Y8
	VSUBPD  Y0, Y8, Y8
	VMOVUPD Y8, (DX)
	TESTQ R12, R12
	JNE  cols

next:
	SUBQ AX, R8
	SUBQ $128, AX
	SUBQ $32, BX
	DECQ CX
	JNE  panel
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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

#include "textflag.h"

// The AVX2 body of UpdateZUNRange for d = 1..5: for each variable, the
// rho-weighted gather of x + u over its edges in CSR order, z = sum *
// (1/rhoSum), then u += alpha*(x - z) and n = z - u over the same edges
// while z is still in registers. An edge's d lanes are one XMM (d = 2,
// 3) or YMM (d = 4, 5) register plus, for odd d > 1, one scalar lane;
// d = 1 is the scalar lane alone. Every operation is the one the Go
// compiler emits for zunGo's small-d loop, lane by lane and with
// the same first source (go tool objdump): u + x, m * r, rhoSum + r,
// acc + p, 1 / rhoSum, z * inv, x - z, t * alpha, t + u, z - u. Nothing
// is fused, so the two give the same bits, NaN payloads included.
//
// Registers: SI = start, DI = edges, R8 = X, R9 = U, R10 = N, R12 = Rho,
// R13 = Alpha, R11 = &Z[b*d]; CX = b, AX walks b's CSR entries up to BX,
// DX holds an edge index, then that index times d. Y0 (+ X1 for the odd
// lane) accumulates, then holds z; X2 = rhoSum, Y3 = rho, X6 = 1.0,
// Y7 = 1/rhoSum, Y8 = alpha.

// GATHERV adds rho*(u + x) of the vector lanes at element DX to ACC.
#define GATHERV(R, M, ACC) \
	VMOVUPD (R9)(DX*8), M;     \
	VADDPD  (R8)(DX*8), M, M;  \
	VMULPD  R, M, M;           \
	VADDPD  M, ACC, ACC

// GATHERS adds rho*(u + x) of the scalar lane off bytes past element DX
// to X1.
#define GATHERS(off) \
	VMOVSD off(R9)(DX*8), X5;     \
	VADDSD off(R8)(DX*8), X5, X5; \
	VMULSD X3, X5, X5;            \
	VADDSD X5, X1, X1

// UNV runs u += alpha*(x - z), n = z - u on the vector lanes at element
// DX, z in Z, alpha in A.
#define UNV(A, Z, T, W) \
	VMOVUPD (R8)(DX*8), T;    \
	VSUBPD  Z, T, T;          \
	VMULPD  A, T, T;          \
	VADDPD  (R9)(DX*8), T, T; \
	VMOVUPD T, (R9)(DX*8);    \
	VSUBPD  T, Z, W;          \
	VMOVUPD W, (R10)(DX*8)

// UNS is UNV on the scalar lane off bytes past element DX, z in X1.
#define UNS(off) \
	VMOVSD off(R8)(DX*8), X11;       \
	VSUBSD X1, X11, X11;             \
	VMULSD X8, X11, X11;             \
	VADDSD off(R9)(DX*8), X11, X11;  \
	VMOVSD X11, off(R9)(DX*8);       \
	VSUBSD X11, X1, X12;             \
	VMOVSD X12, off(R10)(DX*8)

// HEAD starts variable CX: AX..BX are its CSR entries, the sums zero.
#define HEAD \
	MOVQ   (SI)(CX*8), AX;  \
	MOVQ   8(SI)(CX*8), BX; \
	VXORPD Y0, Y0, Y0;      \
	VXORPD X1, X1, X1;      \
	VXORPD X2, X2, X2

// EDGE loads the edge of CSR entry AX into DX.
#define EDGE MOVQ (DI)(AX*8), DX

// RESTART rewinds AX to the first CSR entry of variable CX.
#define RESTART MOVQ (SI)(CX*8), AX

// func zunAVX2(start, edges []int, x, u, n, z, rho, alpha []float64, d, lo, hi int)
//
// Runs variables lo..hi-1 (none if lo >= hi) in one of five loops, one
// per d, each starting on a 64-byte boundary.
TEXT ·zunAVX2(SB), NOSPLIT, $0-216
	MOVQ start_base+0(FP), SI
	MOVQ edges_base+24(FP), DI
	MOVQ x_base+48(FP), R8
	MOVQ u_base+72(FP), R9
	MOVQ n_base+96(FP), R10
	MOVQ z_base+120(FP), R11
	MOVQ rho_base+144(FP), R12
	MOVQ alpha_base+168(FP), R13
	MOVQ d+192(FP), DX
	MOVQ lo+200(FP), CX
	CMPQ CX, hi+208(FP)
	JGE  done
	MOVQ CX, AX
	IMULQ DX, AX
	LEAQ (R11)(AX*8), R11
	MOVQ $0x3ff0000000000000, AX
	VMOVQ AX, X6
	CMPQ DX, $5
	JEQ  d5
	CMPQ DX, $4
	JEQ  d4
	CMPQ DX, $3
	JEQ  d3
	CMPQ DX, $2
	JEQ  d2
	JMP  d1

done:
	RET

	PCALIGN $64
d5:
	HEAD
	CMPQ AX, BX
	JGE  d5z
d5gather:
	EDGE
	VBROADCASTSD (R12)(DX*8), Y3
	VADDSD       X3, X2, X2
	LEAQ         (DX)(DX*4), DX
	GATHERV(Y3, Y4, Y0)
	GATHERS(32)
	INCQ AX
	CMPQ AX, BX
	JLT  d5gather
d5z:
	VDIVSD       X2, X6, X7
	VMULSD       X7, X1, X1
	VBROADCASTSD X7, Y7
	VMULPD       Y7, Y0, Y0
	VMOVUPD      Y0, (R11)
	VMOVSD       X1, 32(R11)
	RESTART
	CMPQ AX, BX
	JGE  d5next
d5un:
	EDGE
	VBROADCASTSD (R13)(DX*8), Y8
	LEAQ         (DX)(DX*4), DX
	UNV(Y8, Y0, Y9, Y10)
	UNS(32)
	INCQ AX
	CMPQ AX, BX
	JLT  d5un
d5next:
	ADDQ $40, R11
	INCQ CX
	CMPQ CX, hi+208(FP)
	JLT  d5
	VZEROUPPER
	RET

	PCALIGN $64
d4:
	HEAD
	CMPQ AX, BX
	JGE  d4z
d4gather:
	EDGE
	VBROADCASTSD (R12)(DX*8), Y3
	VADDSD       X3, X2, X2
	SHLQ         $2, DX
	GATHERV(Y3, Y4, Y0)
	INCQ AX
	CMPQ AX, BX
	JLT  d4gather
d4z:
	VDIVSD       X2, X6, X7
	VBROADCASTSD X7, Y7
	VMULPD       Y7, Y0, Y0
	VMOVUPD      Y0, (R11)
	RESTART
	CMPQ AX, BX
	JGE  d4next
d4un:
	EDGE
	VBROADCASTSD (R13)(DX*8), Y8
	SHLQ         $2, DX
	UNV(Y8, Y0, Y9, Y10)
	INCQ AX
	CMPQ AX, BX
	JLT  d4un
d4next:
	ADDQ $32, R11
	INCQ CX
	CMPQ CX, hi+208(FP)
	JLT  d4
	VZEROUPPER
	RET

	PCALIGN $64
d3:
	HEAD
	CMPQ AX, BX
	JGE  d3z
d3gather:
	EDGE
	VMOVDDUP (R12)(DX*8), X3
	VADDSD   X3, X2, X2
	LEAQ     (DX)(DX*2), DX
	GATHERV(X3, X4, X0)
	GATHERS(16)
	INCQ AX
	CMPQ AX, BX
	JLT  d3gather
d3z:
	VDIVSD   X2, X6, X7
	VMULSD   X7, X1, X1
	VMOVDDUP X7, X7
	VMULPD   X7, X0, X0
	VMOVUPD  X0, (R11)
	VMOVSD   X1, 16(R11)
	RESTART
	CMPQ AX, BX
	JGE  d3next
d3un:
	EDGE
	VMOVDDUP (R13)(DX*8), X8
	LEAQ     (DX)(DX*2), DX
	UNV(X8, X0, X9, X10)
	UNS(16)
	INCQ AX
	CMPQ AX, BX
	JLT  d3un
d3next:
	ADDQ $24, R11
	INCQ CX
	CMPQ CX, hi+208(FP)
	JLT  d3
	VZEROUPPER
	RET

	PCALIGN $64
d2:
	HEAD
	CMPQ AX, BX
	JGE  d2z
d2gather:
	EDGE
	VMOVDDUP (R12)(DX*8), X3
	VADDSD   X3, X2, X2
	SHLQ     $1, DX
	GATHERV(X3, X4, X0)
	INCQ AX
	CMPQ AX, BX
	JLT  d2gather
d2z:
	VDIVSD   X2, X6, X7
	VMOVDDUP X7, X7
	VMULPD   X7, X0, X0
	VMOVUPD  X0, (R11)
	RESTART
	CMPQ AX, BX
	JGE  d2next
d2un:
	EDGE
	VMOVDDUP (R13)(DX*8), X8
	SHLQ     $1, DX
	UNV(X8, X0, X9, X10)
	INCQ AX
	CMPQ AX, BX
	JLT  d2un
d2next:
	ADDQ $16, R11
	INCQ CX
	CMPQ CX, hi+208(FP)
	JLT  d2
	VZEROUPPER
	RET

	PCALIGN $64
d1:
	HEAD
	CMPQ AX, BX
	JGE  d1z
d1gather:
	EDGE
	VMOVSD (R12)(DX*8), X3
	VADDSD X3, X2, X2
	GATHERS(0)
	INCQ AX
	CMPQ AX, BX
	JLT  d1gather
d1z:
	VDIVSD X2, X6, X7
	VMULSD X7, X1, X1
	VMOVSD X1, (R11)
	RESTART
	CMPQ AX, BX
	JGE  d1next
d1un:
	EDGE
	VMOVSD (R13)(DX*8), X8
	UNS(0)
	INCQ AX
	CMPQ AX, BX
	JLT  d1un
d1next:
	ADDQ $8, R11
	INCQ CX
	CMPQ CX, hi+208(FP)
	JLT  d1
	VZEROUPPER
	RET

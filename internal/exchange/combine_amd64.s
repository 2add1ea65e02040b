#include "textflag.h"

// The AVX2 body of Mailbox.Combine for d = 1..5, in sweep_amd64.s's
// (internal/admm) lane layout: for each boundary variable, the
// rho-weighted gather over its edges in CSR order — a remote edge's
// posted block from the inbox, an own edge's x + u formed in registers —
// z = sum * (1/rhoSum), then u += alpha*(x - z) and n = z - u over the
// variable's own edges while z is still in registers. An edge's d lanes
// are one XMM (d = 2, 3) or YMM (d = 4, 5) register plus, for odd d > 1,
// one scalar lane; d = 1 is the scalar lane alone. Every operation is
// the one the Go compiler emits for combineGo, lane by lane and with
// the same first source (go tool objdump): u + x, m * r, rhoSum + r,
// acc + p, 1 / rhoSum, z * inv, x - z, t * alpha, t + u, z - u. Nothing
// is fused, so the two give the same bits, NaN payloads included.
//
// Registers: SI = start, DI = edges, R8 = X, R9 = U, R10 = N, R12 = Rho,
// R13 = Alpha, R14 = the inbox; CX indexes vars and R11 holds its
// variable b, then &Z[b*d]; AX walks b's CSR entries up to BX, and R15
// is the combine program less 4*start[b], so (R15)(AX*4) is entry AX's
// source. DX holds an edge index times d, or a block index times d. Y0
// (+ X1 for the odd lane) accumulates, then holds z; X2 = rhoSum,
// Y3 = rho, X6 = 1.0, Y7 = 1/rhoSum, Y8 = alpha.

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

// BLOCKV adds rho*m of the vector lanes of the inbox block at element
// DX to ACC.
#define BLOCKV(R, M, ACC) \
	VMOVUPD (R14)(DX*8), M; \
	VMULPD  R, M, M;        \
	VADDPD  M, ACC, ACC

// BLOCKS adds rho*m of the scalar lane off bytes past inbox element DX
// to X1.
#define BLOCKS(off) \
	VMOVSD off(R14)(DX*8), X5; \
	VMULSD X3, X5, X5;         \
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

// HEAD starts variable vars[CX] in R11: AX..BX are its CSR entries, R15
// is biased to its first, the sums are zero.
#define HEAD \
	MOVQ   vars_base+0(FP), R11; \
	MOVQ   (R11)(CX*8), R11;     \
	MOVQ   (SI)(R11*8), AX;      \
	MOVQ   8(SI)(R11*8), BX;     \
	MOVQ   AX, DX;               \
	SHLQ   $2, DX;               \
	SUBQ   DX, R15;              \
	VXORPD Y0, Y0, Y0;           \
	VXORPD X1, X1, X1;           \
	VXORPD X2, X2, X2

// EDGE loads the edge of CSR entry AX into DX.
#define EDGE MOVQ (DI)(AX*8), DX

// REMOTE jumps to L if CSR entry AX is a remote edge.
#define REMOTE(L) \
	CMPL (R15)(AX*4), $0; \
	JGE  L

// BLOCK loads the inbox block index of CSR entry AX into DX.
#define BLOCK MOVLQSX (R15)(AX*4), DX

// RESTART rewinds AX to the first CSR entry of variable R11.
#define RESTART MOVQ (SI)(R11*8), AX

// ZAT points R11, once scaled from b to b*d, at z_b.
#define ZAT \
	MOVQ z_base+192(FP), DX; \
	LEAQ (DX)(R11*8), R11

// NEXT moves R15 past variable R11's entries and CX to the next variable.
#define NEXT \
	LEAQ (R15)(BX*4), R15; \
	INCQ CX

// func settleAVX2(edges, vars []int32, x, u, n, z, alpha []float64, d int)
//
// The AVX2 body of Mailbox.Settle: for each listed edge, u += alpha*(x -
// z) and n = z - u with z its variable's, the operations settleGo
// compiles to with the same first sources (x - z, t * alpha, t + u,
// z - u), in one loop per d, each starting on a 64-byte boundary.
// Registers: SI = edges, DI = vars, CX indexes both up to BX, R8 = X,
// R9 = U, R10 = N, R11 = Z, R13 = Alpha; DX holds an edge index, then
// that index times d, and AX a variable index times d. Y0 (+ X1 for the
// odd lane) holds z, Y8 alpha. It is linked ahead of combineAVX2, which
// starts on a 64-byte boundary and ends where the package's text ended
// before settleAVX2 existed, mod 64, so nothing linked after the package
// moves (scripts/layout.sh).
TEXT ·settleAVX2(SB), NOSPLIT, $0-176
	MOVQ edges_base+0(FP), SI
	MOVQ edges_len+8(FP), BX
	MOVQ vars_base+24(FP), DI
	MOVQ x_base+48(FP), R8
	MOVQ u_base+72(FP), R9
	MOVQ n_base+96(FP), R10
	MOVQ z_base+120(FP), R11
	MOVQ alpha_base+144(FP), R13
	MOVQ d+168(FP), DX
	XORQ CX, CX
	CMPQ CX, BX
	JGE  sdone
	CMPQ DX, $5
	JEQ  s5
	CMPQ DX, $4
	JEQ  s4
	CMPQ DX, $3
	JEQ  s3
	CMPQ DX, $2
	JEQ  s2
	JMP  s1

sdone:
	RET

// SEDGE loads entry CX's edge into DX and its variable into AX.
#define SEDGE \
	MOVLQSX (SI)(CX*4), DX; \
	MOVLQSX (DI)(CX*4), AX


	PCALIGN $64
s5:
	SEDGE
	VBROADCASTSD (R13)(DX*8), Y8
	LEAQ (DX)(DX*4), DX
	LEAQ (AX)(AX*4), AX
	VMOVUPD (R11)(AX*8), Y0
	VMOVSD 32(R11)(AX*8), X1
	UNV(Y8, Y0, Y9, Y10)
	UNS(32)
	INCQ CX
	CMPQ CX, BX
	JLT  s5
	VZEROUPPER
	RET

	PCALIGN $64
s4:
	SEDGE
	VBROADCASTSD (R13)(DX*8), Y8
	SHLQ $2, DX
	SHLQ $2, AX
	VMOVUPD (R11)(AX*8), Y0
	UNV(Y8, Y0, Y9, Y10)
	INCQ CX
	CMPQ CX, BX
	JLT  s4
	VZEROUPPER
	RET

	PCALIGN $64
s3:
	SEDGE
	VMOVDDUP (R13)(DX*8), X8
	LEAQ (DX)(DX*2), DX
	LEAQ (AX)(AX*2), AX
	VMOVUPD (R11)(AX*8), X0
	VMOVSD 16(R11)(AX*8), X1
	UNV(X8, X0, X9, X10)
	UNS(16)
	INCQ CX
	CMPQ CX, BX
	JLT  s3
	VZEROUPPER
	RET

	PCALIGN $64
s2:
	SEDGE
	VMOVDDUP (R13)(DX*8), X8
	SHLQ $1, DX
	SHLQ $1, AX
	VMOVUPD (R11)(AX*8), X0
	UNV(X8, X0, X9, X10)
	INCQ CX
	CMPQ CX, BX
	JLT  s2
	VZEROUPPER
	RET

	PCALIGN $64
s1:
	SEDGE
	VMOVSD (R13)(DX*8), X8
	VMOVSD (R11)(AX*8), X1
	UNS(0)
	INCQ CX
	CMPQ CX, BX
	JLT  s1
	VZEROUPPER
	RET

// func combineAVX2(vars, start, edges []int, src []int32, in, x, u, n, z, rho, alpha []float64, d int)
//
// Combines vars in one of five loops, one per d, each starting on a
// 64-byte boundary.
TEXT ·combineAVX2(SB), NOSPLIT, $0-272
	MOVQ start_base+24(FP), SI
	MOVQ edges_base+48(FP), DI
	MOVQ src_base+72(FP), R15
	MOVQ in_base+96(FP), R14
	MOVQ x_base+120(FP), R8
	MOVQ u_base+144(FP), R9
	MOVQ n_base+168(FP), R10
	MOVQ rho_base+216(FP), R12
	MOVQ alpha_base+240(FP), R13
	MOVQ d+264(FP), DX
	XORQ CX, CX
	CMPQ CX, vars_len+8(FP)
	JGE  done
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
	VADDSD X3, X2, X2
	REMOTE(d5block)
	LEAQ (DX)(DX*4), DX
	GATHERV(Y3, Y4, Y0)
	GATHERS(32)
	INCQ AX
	CMPQ AX, BX
	JLT  d5gather
	JMP  d5z
d5block:
	BLOCK
	LEAQ (DX)(DX*4), DX
	BLOCKV(Y3, Y4, Y0)
	BLOCKS(32)
	INCQ AX
	CMPQ AX, BX
	JLT  d5gather
d5z:
	VDIVSD X2, X6, X7
	VMULSD X7, X1, X1
	VBROADCASTSD X7, Y7
	VMULPD Y7, Y0, Y0
	RESTART
	LEAQ (R11)(R11*4), R11
	ZAT
	VMOVUPD Y0, (R11)
	VMOVSD X1, 32(R11)
	CMPQ AX, BX
	JGE  d5next
d5un:
	REMOTE(d5skip)
	EDGE
	VBROADCASTSD (R13)(DX*8), Y8
	LEAQ (DX)(DX*4), DX
	UNV(Y8, Y0, Y9, Y10)
	UNS(32)
d5skip:
	INCQ AX
	CMPQ AX, BX
	JLT  d5un
d5next:
	NEXT
	CMPQ CX, vars_len+8(FP)
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
	VADDSD X3, X2, X2
	REMOTE(d4block)
	SHLQ $2, DX
	GATHERV(Y3, Y4, Y0)
	INCQ AX
	CMPQ AX, BX
	JLT  d4gather
	JMP  d4z
d4block:
	BLOCK
	SHLQ $2, DX
	BLOCKV(Y3, Y4, Y0)
	INCQ AX
	CMPQ AX, BX
	JLT  d4gather
d4z:
	VDIVSD X2, X6, X7
	VBROADCASTSD X7, Y7
	VMULPD Y7, Y0, Y0
	RESTART
	SHLQ $2, R11
	ZAT
	VMOVUPD Y0, (R11)
	CMPQ AX, BX
	JGE  d4next
d4un:
	REMOTE(d4skip)
	EDGE
	VBROADCASTSD (R13)(DX*8), Y8
	SHLQ $2, DX
	UNV(Y8, Y0, Y9, Y10)
d4skip:
	INCQ AX
	CMPQ AX, BX
	JLT  d4un
d4next:
	NEXT
	CMPQ CX, vars_len+8(FP)
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
	VADDSD X3, X2, X2
	REMOTE(d3block)
	LEAQ (DX)(DX*2), DX
	GATHERV(X3, X4, X0)
	GATHERS(16)
	INCQ AX
	CMPQ AX, BX
	JLT  d3gather
	JMP  d3z
d3block:
	BLOCK
	LEAQ (DX)(DX*2), DX
	BLOCKV(X3, X4, X0)
	BLOCKS(16)
	INCQ AX
	CMPQ AX, BX
	JLT  d3gather
d3z:
	VDIVSD X2, X6, X7
	VMULSD X7, X1, X1
	VMOVDDUP X7, X7
	VMULPD X7, X0, X0
	RESTART
	LEAQ (R11)(R11*2), R11
	ZAT
	VMOVUPD X0, (R11)
	VMOVSD X1, 16(R11)
	CMPQ AX, BX
	JGE  d3next
d3un:
	REMOTE(d3skip)
	EDGE
	VMOVDDUP (R13)(DX*8), X8
	LEAQ (DX)(DX*2), DX
	UNV(X8, X0, X9, X10)
	UNS(16)
d3skip:
	INCQ AX
	CMPQ AX, BX
	JLT  d3un
d3next:
	NEXT
	CMPQ CX, vars_len+8(FP)
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
	VADDSD X3, X2, X2
	REMOTE(d2block)
	SHLQ $1, DX
	GATHERV(X3, X4, X0)
	INCQ AX
	CMPQ AX, BX
	JLT  d2gather
	JMP  d2z
d2block:
	BLOCK
	SHLQ $1, DX
	BLOCKV(X3, X4, X0)
	INCQ AX
	CMPQ AX, BX
	JLT  d2gather
d2z:
	VDIVSD X2, X6, X7
	VMOVDDUP X7, X7
	VMULPD X7, X0, X0
	RESTART
	SHLQ $1, R11
	ZAT
	VMOVUPD X0, (R11)
	CMPQ AX, BX
	JGE  d2next
d2un:
	REMOTE(d2skip)
	EDGE
	VMOVDDUP (R13)(DX*8), X8
	SHLQ $1, DX
	UNV(X8, X0, X9, X10)
d2skip:
	INCQ AX
	CMPQ AX, BX
	JLT  d2un
d2next:
	NEXT
	CMPQ CX, vars_len+8(FP)
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
	REMOTE(d1block)
	GATHERS(0)
	INCQ AX
	CMPQ AX, BX
	JLT  d1gather
	JMP  d1z
d1block:
	BLOCK
	BLOCKS(0)
	INCQ AX
	CMPQ AX, BX
	JLT  d1gather
d1z:
	VDIVSD X2, X6, X7
	VMULSD X7, X1, X1
	RESTART
	ZAT
	VMOVSD X1, 0(R11)
	CMPQ AX, BX
	JGE  d1next
d1un:
	REMOTE(d1skip)
	EDGE
	VMOVSD (R13)(DX*8), X8
	UNS(0)
d1skip:
	INCQ AX
	CMPQ AX, BX
	JLT  d1un
d1next:
	NEXT
	CMPQ CX, vars_len+8(FP)
	JLT  d1
	VZEROUPPER
	RET

#include "textflag.h"
#include "go_asm.h"
#include "rescale_amd64.h"

// The elementwise kernels walk their slices in 8-lane chunks at byte offset
// AX, with R10 lanes left. K1 masks the chunk: all eight lanes, then the
// tail lanes for a last partial chunk, whose masked-off lanes load as 0 and
// are not stored. A zero lane passes every guard, so the tail needs no
// special case there. Each kernel makes a guard pass and then a compute
// pass; REFUSE is the guard pass's exit.

// LOOP8(n) starts a pass over n lanes: R10 = n, AX = 0, K1 = all lanes.
#define LOOP8(n) \
	MOVQ  n, R10 \
	XORQ  AX, AX \
	MOVL  $0xff, R8 \
	KMOVB R8, K1

// CHUNKMASK(full) narrows K1 to the R10 remaining lanes when R10 < 8,
// clobbering CX and R8; full is a fresh label.
#define CHUNKMASK(full) \
	CMPQ  R10, $8 \
	JAE   full \
	MOVQ  R10, CX \
	MOVL  $1, R8 \
	SHLL  CX, R8 \
	DECL  R8 \
	KMOVB R8, K1 \
full:

// NEXT8(loop) advances to the next chunk and loops while lanes are left.
#define NEXT8(loop) \
	ADDQ $64, AX \
	SUBQ $8, R10 \
	JG   loop

// OVER(v, bound, k) sets k to the lanes whose |v| exceeds bound as an
// unsigned value: VPABSQ leaves MinInt64 as 2^63, which exceeds any bound
// below 2^63. Z31 is scratch.
#define OVER(v, bound, k) \
	VPABSQ  v, Z31 \
	VPCMPUQ $6, bound, Z31, k

// func sigmoidAVX512(v []Value, c *PLAN, scale int64, bound uint64) bool
//
// Per lane, as Arith.Sigmoid: ax = |x| (VPABSQ wraps MinInt64 like
// Arith.Abs), k = the count of breakpoints ax passes (signed compares, as
// Go's >=), p = Slope[k]·ax (VPMULLQ, the low 64 bits, as Go's *),
// y = RESCALE8(p) + Intercept[k], and the result (S & s) + ((y^s) − s) for
// the sign mask s = x >> 63. Slope and Intercept are looked up with VPERMQ
// from a table register holding the four entries in lanes 0-3. The guard
// pass computes p and refuses if any |p| exceeds bound.
//
// Registers: DI v, BX c, Z1-Z3 RESCALE8's constants, Z5 bound, Z6 S,
// Z7-Z9 the breakpoints, Z10 the slopes, Z11 the intercepts, Z12 ones,
// Z13 x, Z14 ax, Z15 k, Z16 p then y, Z17-Z18 scratch.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-49
	MOVQ         v_base+0(FP), DI
	MOVQ         c+24(FP), BX
	VPBROADCASTQ scale+32(FP), Z6
	VCVTQQ2PD    Z6, Z1
	VPBROADCASTQ bound+40(FP), Z5
	ROUNDCONSTS
	VPBROADCASTQ PLAN_Break+0(BX), Z7
	VPBROADCASTQ PLAN_Break+8(BX), Z8
	VPBROADCASTQ PLAN_Break+16(BX), Z9
	VMOVDQU64    PLAN_Slope(BX), Y10
	VMOVDQU64    PLAN_Intercept(BX), Y11
	MOVQ         $1, R8
	VPBROADCASTQ R8, Z12

// SEGMENT computes Z13 = x, Z14 = ax, Z15 = k and Z16 = p for the chunk.
#define SEGMENT \
	VMOVDQU64.Z (DI)(AX*1), K1, Z13 \
	VPABSQ      Z13, Z14 \
	VPCMPQ      $5, Z7, Z14, K2 \
	VPCMPQ      $5, Z8, Z14, K3 \
	VPCMPQ      $5, Z9, Z14, K4 \
	VPXORQ      Z15, Z15, Z15 \
	VPADDQ      Z12, Z15, K2, Z15 \
	VPADDQ      Z12, Z15, K3, Z15 \
	VPADDQ      Z12, Z15, K4, Z15 \
	VPERMQ      Z10, Z15, Z16 \
	VPMULLQ     Z16, Z14, Z16

	LOOP8(v_len+8(FP))
	TESTQ R10, R10
	JLE   sigmoidOK

sigmoidGuard:
	CHUNKMASK(sigmoidGuardFull)
	SEGMENT
	OVER(Z16, Z5, K5)
	KORTESTB K5, K5
	JNZ      sigmoidRefuse
	NEXT8(sigmoidGuard)

	LOOP8(v_len+8(FP))

sigmoidCompute:
	CHUNKMASK(sigmoidComputeFull)
	SEGMENT
	RESCALE8(Z16, Z17)
	VPERMQ    Z11, Z15, Z17
	VPADDQ    Z17, Z16, Z16
	VPSRAQ    $63, Z13, Z18
	VPANDQ    Z6, Z18, Z17
	VPXORQ    Z18, Z16, Z16
	VPSUBQ    Z18, Z16, Z16
	VPADDQ    Z17, Z16, Z16
	VMOVDQU64 Z16, K1, (DI)(AX*1)
	NEXT8(sigmoidCompute)

sigmoidOK:
	VZEROUPPER
	MOVB $1, ret+48(FP)
	RET

sigmoidRefuse:
	VZEROUPPER
	MOVB $0, ret+48(FP)
	RET

// func softsignAVX512(v []Value, scale int64, bound uint64) bool
//
// Per lane, as Arith.Softsign: ROUNDDIV8(x·S, |x| + S). The guard pass
// refuses if any |x| exceeds bound (softsignLimit), which keeps x·S and
// |x| + S from wrapping and |x·S| within 2^52 − (|x| + S).
//
// Registers: DI v, Z2-Z3 ROUNDDIV8's constants, Z5 bound, Z6 S, Z13 x then
// x·S, Z14 |x| then |x| + S, Z15 scratch.
TEXT ·softsignAVX512(SB), NOSPLIT, $0-41
	MOVQ         v_base+0(FP), DI
	VPBROADCASTQ scale+24(FP), Z6
	VPBROADCASTQ bound+32(FP), Z5
	ROUNDCONSTS

	LOOP8(v_len+8(FP))
	TESTQ R10, R10
	JLE   softsignOK

softsignGuard:
	CHUNKMASK(softsignGuardFull)
	VMOVDQU64.Z (DI)(AX*1), K1, Z13
	OVER(Z13, Z5, K5)
	KORTESTB    K5, K5
	JNZ         softsignRefuse
	NEXT8(softsignGuard)

	LOOP8(v_len+8(FP))

softsignCompute:
	CHUNKMASK(softsignComputeFull)
	VMOVDQU64.Z (DI)(AX*1), K1, Z13
	VPABSQ      Z13, Z14
	VPADDQ      Z6, Z14, Z14
	VCVTQQ2PD   Z14, Z14
	VPMULLQ     Z6, Z13, Z13
	ROUNDDIV8(Z13, Z14, Z15)
	VMOVDQU64   Z13, K1, (DI)(AX*1)
	NEXT8(softsignCompute)

softsignOK:
	VZEROUPPER
	MOVB $1, ret+40(FP)
	RET

softsignRefuse:
	VZEROUPPER
	MOVB $0, ret+40(FP)
	RET

// func mulAVX512(dst, x, y []Value, scale float64, bound uint64) bool
//
// Per lane, as Arith.Mul: RESCALE8(x·y), the product from VPMULLQ. The
// guard pass refuses if any |x·y| exceeds bound.
//
// Registers: DI dst, SI x, DX y, Z1-Z3 RESCALE8's constants, Z5 bound,
// Z13 the product, Z14-Z15 scratch.
TEXT ·mulAVX512(SB), NOSPLIT, $0-89
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD scale+72(FP), Z1
	VPBROADCASTQ bound+80(FP), Z5
	ROUNDCONSTS

// PRODUCT computes Z13 = x·y for the chunk.
#define PRODUCT \
	VMOVDQU64.Z (SI)(AX*1), K1, Z13 \
	VMOVDQU64.Z (DX)(AX*1), K1, Z14 \
	VPMULLQ     Z14, Z13, Z13

	LOOP8(dst_len+8(FP))
	TESTQ R10, R10
	JLE   mulOK

mulGuard:
	CHUNKMASK(mulGuardFull)
	PRODUCT
	OVER(Z13, Z5, K5)
	KORTESTB K5, K5
	JNZ      mulRefuse
	NEXT8(mulGuard)

	LOOP8(dst_len+8(FP))

mulCompute:
	CHUNKMASK(mulComputeFull)
	PRODUCT
	RESCALE8(Z13, Z15)
	VMOVDQU64 Z13, K1, (DI)(AX*1)
	NEXT8(mulCompute)

mulOK:
	VZEROUPPER
	MOVB $1, ret+88(FP)
	RET

mulRefuse:
	VZEROUPPER
	MOVB $0, ret+88(FP)
	RET

// func mulAddAVX512(dst, x, y, u, w []Value, scale float64, bound uint64) bool
//
// Per lane, as Mul(x, y) + Mul(u, w): RESCALE8(x·y) + RESCALE8(u·w). The
// guard pass refuses if any |x·y| or |u·w| exceeds bound. Every operand of
// a chunk is loaded before its result is stored, so dst may be one of the
// operands.
//
// Registers: DI dst, SI x, DX y, R11 u, R12 w, Z1-Z3 RESCALE8's constants,
// Z5 bound, Z13 x·y, Z14 u·w, Z15-Z16 scratch.
TEXT ·mulAddAVX512(SB), NOSPLIT, $0-137
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	MOVQ         u_base+72(FP), R11
	MOVQ         w_base+96(FP), R12
	VBROADCASTSD scale+120(FP), Z1
	VPBROADCASTQ bound+128(FP), Z5
	ROUNDCONSTS

// PRODUCTS computes Z13 = x·y and Z14 = u·w for the chunk.
#define PRODUCTS \
	PRODUCT \
	VMOVDQU64.Z (R11)(AX*1), K1, Z14 \
	VMOVDQU64.Z (R12)(AX*1), K1, Z15 \
	VPMULLQ     Z15, Z14, Z14

	LOOP8(dst_len+8(FP))
	TESTQ R10, R10
	JLE   mulAddOK

mulAddGuard:
	CHUNKMASK(mulAddGuardFull)
	PRODUCTS
	OVER(Z13, Z5, K5)
	OVER(Z14, Z5, K6)
	KORTESTB K6, K5
	JNZ      mulAddRefuse
	NEXT8(mulAddGuard)

	LOOP8(dst_len+8(FP))

mulAddCompute:
	CHUNKMASK(mulAddComputeFull)
	PRODUCTS
	RESCALE8(Z13, Z15)
	RESCALE8(Z14, Z16)
	VPADDQ    Z14, Z13, Z13
	VMOVDQU64 Z13, K1, (DI)(AX*1)
	NEXT8(mulAddCompute)

mulAddOK:
	VZEROUPPER
	MOVB $1, ret+136(FP)
	RET

mulAddRefuse:
	VZEROUPPER
	MOVB $0, ret+136(FP)
	RET

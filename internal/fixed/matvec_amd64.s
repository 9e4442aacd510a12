#include "textflag.h"
#include "rescale_amd64.h"

// ROWSUMS4(MUL) is the body of rowSums4AVX512 and rowSums4NarrowAVX512,
// which differ only in the multiply MUL.
//
// For every block of four rows j..j+3 with j+4 <= len(dst), it sets dst[j+k]
// to the raw (unrescaled) int64 sum of w[(j+k)*n+i] * x[i] over i < n, where
// n = len(x). Each pass over x multiplies one 8-lane chunk of x into four
// 8-lane row accumulators; the n%8 tail is loaded under a zeroing mask, so
// its masked-off lanes read no memory and add 0. The reduction folds each
// accumulator to 4 lanes (rows a, b, c, d), takes pairwise lane sums into
// Y4 = [a0+a1, b0+b1, a2+a3, b2+b3] and Y5 likewise for c and d, then adds
// the 128-bit halves across to [a, b, c, d] and stores them in one go.
//
// Registers: DI dst, SI row 0 of the current block, DX x, R8 row stride in
// bytes, R11 three row strides, R13 full chunks per row, AX tail bytes,
// K1 tail mask, R10 blocks left, R9 chunks left, R12 x cursor,
// Z0-Z3 row accumulators.
#define ROWSUMS4(MUL) \
	MOVQ dst_base+0(FP), DI \
	MOVQ dst_len+8(FP), R10 \
	MOVQ w_base+24(FP), SI \
	MOVQ x_base+48(FP), DX \
	MOVQ x_len+56(FP), BX \
	SHRQ $2, R10 \
	JZ   done \
	\
	LEAQ (BX*8), R8 \
	LEAQ (R8)(R8*2), R11 \
	MOVQ BX, R13 \
	SHRQ $3, R13 \
	MOVQ BX, CX \
	ANDQ $7, CX \
	LEAQ (CX*8), AX \
	MOVL $1, R9 \
	SHLL CX, R9 \
	DECL R9 \
	KMOVB R9, K1 \
	\
block: \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	MOVQ   DX, R12 \
	MOVQ   R13, R9 \
	TESTQ  R9, R9 \
	JZ     tail \
	\
chunk: \
	VMOVDQU64 (R12), Z4 \
	MUL       (SI), Z4, Z5 \
	MUL       (SI)(R8*1), Z4, Z6 \
	MUL       (SI)(R8*2), Z4, Z7 \
	MUL       (SI)(R11*1), Z4, Z8 \
	VPADDQ    Z5, Z0, Z0 \
	VPADDQ    Z6, Z1, Z1 \
	VPADDQ    Z7, Z2, Z2 \
	VPADDQ    Z8, Z3, Z3 \
	ADDQ      $64, R12 \
	ADDQ      $64, SI \
	DECQ      R9 \
	JNZ       chunk \
	\
tail: \
	TESTQ AX, AX \
	JZ    reduce \
	VMOVDQU64.Z (R12), K1, Z4 \
	VMOVDQU64.Z (SI), K1, Z5 \
	VMOVDQU64.Z (SI)(R8*1), K1, Z6 \
	VMOVDQU64.Z (SI)(R8*2), K1, Z7 \
	VMOVDQU64.Z (SI)(R11*1), K1, Z8 \
	MUL         Z5, Z4, Z5 \
	MUL         Z6, Z4, Z6 \
	MUL         Z7, Z4, Z7 \
	MUL         Z8, Z4, Z8 \
	VPADDQ      Z5, Z0, Z0 \
	VPADDQ      Z6, Z1, Z1 \
	VPADDQ      Z7, Z2, Z2 \
	VPADDQ      Z8, Z3, Z3 \
	ADDQ        AX, SI \
	\
reduce: \
	VEXTRACTI64X4 $1, Z0, Y4 \
	VEXTRACTI64X4 $1, Z1, Y5 \
	VEXTRACTI64X4 $1, Z2, Y6 \
	VEXTRACTI64X4 $1, Z3, Y7 \
	VPADDQ        Y4, Y0, Y0 \
	VPADDQ        Y5, Y1, Y1 \
	VPADDQ        Y6, Y2, Y2 \
	VPADDQ        Y7, Y3, Y3 \
	\
	VPUNPCKLQDQ Y1, Y0, Y4 \
	VPUNPCKHQDQ Y1, Y0, Y5 \
	VPADDQ      Y5, Y4, Y4 \
	VPUNPCKLQDQ Y3, Y2, Y5 \
	VPUNPCKHQDQ Y3, Y2, Y6 \
	VPADDQ      Y6, Y5, Y5 \
	\
	VPERM2I128 $0x20, Y5, Y4, Y6 \
	VPERM2I128 $0x31, Y5, Y4, Y7 \
	VPADDQ     Y7, Y6, Y6 \
	VMOVDQU    Y6, (DI) \
	\
	ADDQ $32, DI \
	ADDQ R11, SI \
	DECQ R10 \
	JNZ  block \
	\
	VZEROUPPER \
	\
done: \
	RET

// func rowSums4AVX512(dst, w, x []Value)
//
// VPMULLQ keeps the low 64 bits of each product, which is Go's wrapping
// int64 multiply, so the sums are exact modulo 2^64 for any operands.
TEXT ·rowSums4AVX512(SB), NOSPLIT, $0-72
	ROWSUMS4(VPMULLQ)

// func rowSums4NarrowAVX512(dst, w, x []Value)
//
// VPMULDQ multiplies the sign-extended low dwords of each lane into a full
// 64-bit product (one µop where VPMULLQ takes three), which is the int64
// product when both operands fit int32.
TEXT ·rowSums4NarrowAVX512(SB), NOSPLIT, $0-72
	ROWSUMS4(VPMULDQ)

// func rescaleAVX512(v []Value, scale float64)
//
// Sets each v[i] to the quotient v[i]/scale rounded half away from zero
// with RESCALE8, eight lanes at a time and the len%8 tail under a mask. It
// equals roundedDiv(v[i], scale) when |v[i]| <= 2^52 - scale (narrowBound);
// DESIGN.md "Fixed-point hot path" has the argument.
//
// Registers: DI cursor, R9 full chunks left, CX tail lanes, K1 tail mask,
// Z0 the chunk, Z1-Z3 RESCALE8's constants, Z4 its scratch.
TEXT ·rescaleAVX512(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD scale+24(FP), Z1
	ROUNDCONSTS
	MOVQ         CX, R9
	SHRQ         $3, R9
	ANDQ         $7, CX
	MOVL         $1, R8
	SHLL         CX, R8
	DECL         R8
	KMOVB        R8, K1
	TESTQ        R9, R9
	JZ           tail

chunk:
	VMOVDQU64 (DI), Z0
	RESCALE8(Z0, Z4)
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, DI
	DECQ      R9
	JNZ       chunk

tail:
	TESTQ       CX, CX
	JZ          done
	VMOVDQU64.Z (DI), K1, Z0
	RESCALE8(Z0, Z4)
	VMOVDQU64   Z0, K1, (DI)

done:
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

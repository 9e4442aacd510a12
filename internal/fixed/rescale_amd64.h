// Vector rounding shared by the AVX-512 kernels in matvec_amd64.s and
// elementwise_amd64.s. Both expect Z2 to hold 0.5 and Z3 the float64 sign
// bit (0x8000000000000000) in every lane, and RESCALE8 also Z1 = S as
// float64.

// ROUNDDIV8(num, den, t) sets the eight int64 lanes of num to num/den
// rounded half away from zero: convert num to float64, divide by the
// float64 lanes of den, add 0.5 carrying the quotient's sign bit, and
// truncate. t is scratch. It equals roundedDiv(num, den) lane by lane when
// den is an integer ≥ 1 and |num| ≤ 2^52 − den; DESIGN.md "Fixed-point hot
// path" has the argument.
#define ROUNDDIV8(num, den, t) \
	VCVTQQ2PD  num, num \
	VDIVPD     den, num, num \
	VPANDQ     Z3, num, t \
	VPORQ      Z2, t, t \
	VADDPD     t, num, num \
	VCVTTPD2QQ num, num

// RESCALE8(v, t) rescales the eight int64 lanes of v in place:
// ROUNDDIV8 by the scale S in Z1. It equals roundedDiv(v, S) lane by lane
// for |v| ≤ 2^52 − S (narrowBound).
#define RESCALE8(v, t) ROUNDDIV8(v, Z1, t)

// ROUNDCONSTS loads Z2 = 0.5 and Z3 = the sign bit, clobbering AX.
#define ROUNDCONSTS \
	MOVQ         $0x3fe0000000000000, AX \
	VPBROADCASTQ AX, Z2 \
	MOVQ         $0x8000000000000000, AX \
	VPBROADCASTQ AX, Z3

package fixed

// hasAVX512 reports whether the CPU runs the AVX-512 kernels: MatVec's
// rowSums4NarrowAVX512 and rescaleAVX512, and the elementwise kernels. It is
// decided once, at package init, from CPUID and XGETBV.
var hasAVX512 = cpuHasAVX512DQ()

// rowSums4NarrowAVX512 is rowSums4Generic on AVX-512: four rows per pass
// over x, eight int64 lanes per VPMULDQ/VPADDQ, the n%8 tail under a zeroing
// mask. Callers guarantee len(w) == len(dst)*len(x). VPMULDQ multiplies the
// low dwords, so its sums equal rowSums4Generic's only when every weight and
// every x fits int32, which narrowExact checks before MatVec calls it. It
// requires AVX512F, AVX512DQ and OS-enabled ZMM state; see cpuHasAVX512DQ.
// rescaleAVX512 needs the same.
//
//go:noescape
func rowSums4NarrowAVX512(dst, w, x []Value)

// rescaleAVX512 sets each v[i] to v[i]/scale rounded half away from zero in
// float64, eight lanes at a time. It equals roundedDiv(v[i], scale) for
// |v[i]| ≤ 2^52 − scale, the bound narrowExact keeps MatVec's sums within.
//
//go:noescape
func rescaleAVX512(v []Value, scale float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// cpuHasAVX512DQ reports whether the CPU has AVX512F and AVX512DQ and the OS
// saves the opmask and full ZMM state on context switches: the checks
// golang.org/x/sys/cpu makes, written out because the module has no
// dependencies.
func cpuHasAVX512DQ() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is available
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17 // CPUID.(7,0):EBX
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}

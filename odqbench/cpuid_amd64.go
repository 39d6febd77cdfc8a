package main

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// simdFlags reports AVX2 and AVX-512 VPOPCNTDQ support, each only when
// the OS also saves the register state the extension needs.
func simdFlags() (avx2, vpopcntdq bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if maxLeaf < 7 || ecx1&osxsave == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx7, ecx7, _ := cpuid(7, 0)
	ymm := xcr0&0x6 == 0x6
	zmm := xcr0&0xe6 == 0xe6
	avx2 = ymm && ebx7&(1<<5) != 0
	vpopcntdq = zmm && ebx7&(1<<16) != 0 && ecx7&(1<<14) != 0
	return avx2, vpopcntdq
}

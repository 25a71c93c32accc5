package xi

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2Usable: AVX2 is used only when the CPU has AVX and AVX2 and the
// OS enabled XGETBV and saves both the SSE and the AVX register state.
func TestAVX2Usable(t *testing.T) {
	const ecx = cpuidOSXSAVE | cpuidAVX
	for _, tc := range []struct {
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{ecx, cpuidAVX2, xcr0SSEAVX, true},
		{ecx, cpuidAVX2, xcr0SSEAVX | 1 | 1<<5 | 1<<6 | 1<<7, true}, // x87 and AVX-512 state too
		{ecx, 0, xcr0SSEAVX, false},                                 // no AVX2
		{cpuidOSXSAVE, cpuidAVX2, xcr0SSEAVX, false},                // no AVX
		{cpuidAVX, cpuidAVX2, xcr0SSEAVX, false},                    // OS did not enable XSAVE
		{ecx, cpuidAVX2, 1 << 1, false},                             // OS does not save YMM
		{ecx, cpuidAVX2, 1 << 2, false},                             // nor XMM
		{ecx, cpuidAVX2, 0, false},
	} {
		if got := avx2Usable(tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("avx2Usable(%#x, %#x, %#x) = %v, want %v", tc.ecx1, tc.ebx7, tc.xcr0, got, tc.want)
		}
	}
}

// TestVectorKernelSelected: where CPUID reports AVX2 and the OS saves YMM
// state, SumSignsMany runs the AVX2 kernel, not the scalar fallback. On
// Linux the kernel's own reading of the CPU (/proc/cpuinfo, which drops
// avx2 when the OS does not save YMM state) must agree.
func TestVectorKernelSelected(t *testing.T) {
	avx2 := detectAVX2()
	if avx2 != useAVX2 {
		t.Fatalf("CPUID says AVX2 usable = %v, but the AVX2 kernel selected = %v", avx2, useAVX2)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Logf("no /proc/cpuinfo to cross-check (%v); AVX2 usable = %v", err, avx2)
		return
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		listed := false
		for _, f := range strings.Fields(flags) {
			listed = listed || f == "avx2"
		}
		if listed != avx2 {
			t.Fatalf("/proc/cpuinfo lists avx2 = %v, CPUID says AVX2 usable = %v", listed, avx2)
		}
		return
	}
	t.Logf("/proc/cpuinfo has no flags line; AVX2 usable = %v", avx2)
}

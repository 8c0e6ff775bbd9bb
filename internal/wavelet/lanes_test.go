package wavelet

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// The vector rows are bit-identical to the Go rows only because each lane
// rounds every operation on its own, as the scalar code does. A fused
// multiply-add rounds once where the scalar code rounds twice, and the
// reciprocal estimates are not the division; neither may appear.
func TestLanesNoContraction(t *testing.T) {
	src, err := os.ReadFile("lanes_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := regexp.MustCompile(`\b(VFMADD|VFMSUB|VFNMADD|VFNMSUB|VRCP|VRSQRT)\w*`)
	if m := forbidden.FindAll(src, -1); m != nil {
		t.Fatalf("lanes_amd64.s contains %q: its lanes would not round as the scalar rows do", m)
	}
}

// The kernels need AVX, not AVX2, and detectLanes asks for AVX alone: the
// assembly may use only the instructions below. An AVX2-only instruction
// (VPERMPD, VBROADCASTSD from a register, any integer YMM op, FMA) would
// fault on an AVX-only CPU, so adding one must fail here and bring back
// detectLanes' AVX2 check in the same change.
func TestLanesAVXOnly(t *testing.T) {
	src, err := os.ReadFile("lanes_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		// Integer and control flow, and the CPU check's own instructions.
		"ADDQ": true, "CMPQ": true, "DECQ": true, "JLT": true, "JNZ": true, "LEAQ": true,
		"MOVL": true, "MOVQ": true, "RET": true, "SHLQ": true, "XORQ": true,
		"CPUID": true, "XGETBV": true,
		// AVX.
		"VADDPD": true, "VSUBPD": true, "VMULPD": true, "VDIVPD": true,
		"VMOVUPD": true, "VMOVAPD": true, "VMOVSD": true, "VMOVHPD": true,
		"VINSERTF128": true, "VEXTRACTF128": true, "VUNPCKLPD": true, "VUNPCKHPD": true,
		"VZEROUPPER": true, "VBROADCASTSD": true,
	}
	insn := regexp.MustCompile(`(?m)^\s+([A-Z][A-Z0-9]*)\b(.*)$`)
	seen := 0
	for _, m := range insn.FindAllSubmatch(src, -1) {
		op, args := string(m[1]), string(m[2])
		if !allowed[op] {
			t.Errorf("lanes_amd64.s uses %s, which is not on the AVX allowlist", op)
		}
		// AVX broadcasts only from memory; the register form is AVX2.
		if op == "VBROADCASTSD" && !strings.Contains(strings.SplitN(args, ",", 2)[0], "(") {
			t.Errorf("VBROADCASTSD from a register is AVX2:%s", args)
		}
		seen++
	}
	if seen < 100 {
		t.Fatalf("parsed only %d instructions; the pattern no longer matches the file", seen)
	}
}

package wavelet

import (
	"os"
	"regexp"
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

package sperr

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles keeps the benchmark module inside tier-1. bench/
// is its own Go module (`replace sperr => ../`), so `go build ./... && go
// test ./...` at the root never type-checks it, yet bench/trace.go pins
// internal/ symbols by name (speck.EncodeScratchWorkers, speck.ReplayScratch,
// codec.EncodeChunkScratch, chunk.DecompressRegion, ...). A rename that the
// root build accepts would otherwise first fail when the driver builds the
// benchmark. The environment matches bench/run.sh: no workspace, no
// network, no toolchain download.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	if _, err := os.Stat("bench/go.mod"); err != nil {
		t.Skip("no bench module in this checkout")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

package main

// Exit-code contract tests, run against the built binary: 0 success,
// 1 other I/O, 2 usage, 3 corrupt input. Scripts depend on the mapping,
// so it is pinned here alongside the flag-validation table.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sperr"
)

// makeContainer compresses a small multi-chunk volume in-process and
// returns the container bytes plus each frame's payload offset/length
// (derived from the frame sizes Describe reports).
func makeContainer(t *testing.T) (stream []byte, payloadOff []int, payloadLen []int) {
	t.Helper()
	data := make([]float64, 12*11*10)
	for i := range data {
		data[i] = math.Sin(0.17 * float64(i))
	}
	stream, _, err := sperr.CompressPWE(data, [3]int{12, 11, 10}, 1e-3,
		&sperr.Options{ChunkDims: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := sperr.Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	off := 36
	for _, n := range fi.FrameBytes {
		payloadOff = append(payloadOff, off+4)
		payloadLen = append(payloadLen, n)
		off += 4 + n + 4
	}
	return stream, payloadOff, payloadLen
}

func runBin(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildSperr(t)
	dir := t.TempDir()

	stream, payloadOff, _ := makeContainer(t)
	clean := filepath.Join(dir, "clean.sperr")
	if err := os.WriteFile(clean, stream, 0o600); err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.sperr")
	mut := bytes.Clone(stream)
	mut[payloadOff[1]+3] ^= 0x40 // one flipped bit inside frame 1's payload
	if err := os.WriteFile(damaged, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.sperr")
	if err := os.WriteFile(garbage, []byte("not a container at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	// An 8^3 field of 1e10*sin(0.37 i): ulp(1e10) is 2^-19, so a 1e-50
	// tolerance is far below what the data resolves.
	raw := filepath.Join(dir, "sin.f64")
	sinField := make([]byte, 8*8*8*8)
	for i := 0; i < 8*8*8; i++ {
		binary.LittleEndian.PutUint64(sinField[8*i:], math.Float64bits(1e10*math.Sin(0.37*float64(i))))
	}
	if err := os.WriteFile(raw, sinField, 0o600); err != nil {
		t.Fatal(err)
	}
	// The retired container v1 fixture: refused everywhere but repair,
	// which upgrades it.
	v1 := filepath.Join("..", "..", "testdata", "golden_pwe_24x17x9.sperr")

	cases := []struct {
		name string
		args []string
		want int
		msg  string
	}{
		{"fsck-clean", []string{"fsck", clean}, 0, "clean"},
		{"fsck-damaged", []string{"fsck", damaged}, 3, "LOST: frame checksum mismatch"},
		{"fsck-garbage", []string{"fsck", garbage}, 3, "corrupt container"},
		{"fsck-missing-file", []string{"fsck", filepath.Join(dir, "nope")}, 1, "read"},
		{"fsck-usage", []string{"fsck"}, 2, "exactly one argument"},
		{"repair-usage", []string{"repair", damaged}, 2, "exactly two arguments"},
		{"repair-garbage", []string{"repair", garbage, filepath.Join(dir, "out")}, 3, "corrupt container"},
		{"info-garbage", []string{"-info", "-in", garbage}, 3, "describe"},
		{"decompress-damaged", []string{"-d", "-in", damaged, "-out", filepath.Join(dir, "r.f64")}, 3, "checksum mismatch"},
		{"decompress-missing", []string{"-d", "-in", filepath.Join(dir, "nope"), "-out", filepath.Join(dir, "r.f64")}, 1, "read"},
		{"fsck-v1", []string{"fsck", v1}, 3, "sperr repair"},
		{"info-v1", []string{"-info", "-in", v1}, 3, "sperr repair"},
		{"decompress-v1", []string{"-d", "-in", v1, "-out", filepath.Join(dir, "v1.f64")}, 3, "sperr repair"},
		{"repair-v1", []string{"repair", v1, filepath.Join(dir, "v1up.sperr")}, 0, "upgraded from v1 to v2"},
		{"compress-below-resolution", []string{"-c", "-in", raw, "-dims", "8,8,8", "-tol", "1e-50", "-out", filepath.Join(dir, "sin.sperr")}, 2,
			"tolerance 1e-50 is below 1.9073486328125e-06"},
		{"compress-negative-q", []string{"-c", "-in", raw, "-dims", "8,8,8", "-tol", "1e-3", "-q", "-3", "-out", filepath.Join(dir, "q.sperr")}, 2,
			"-q must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runBin(t, bin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit code %d, want %d\n%s", code, tc.want, out)
			}
			if !strings.Contains(out, tc.msg) {
				t.Fatalf("output missing %q:\n%s", tc.msg, out)
			}
		})
	}
}

// TestRepairRoundTrip pins the repair contract: after repairing a
// damaged container, normal decompression succeeds and the surviving
// chunks reconstruct bit-identically to the undamaged original.
func TestRepairRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildSperr(t)
	dir := t.TempDir()

	stream, payloadOff, _ := makeContainer(t)
	orig, dims, err := sperr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}

	mut := bytes.Clone(stream)
	mut[payloadOff[2]+5] ^= 0x01
	damaged := filepath.Join(dir, "damaged.sperr")
	if err := os.WriteFile(damaged, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	repaired := filepath.Join(dir, "repaired.sperr")
	out, code := runBin(t, bin, "repair", damaged, repaired)
	if code != 0 {
		t.Fatalf("repair exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "kept 7 of 8 chunks") {
		t.Fatalf("unexpected repair summary:\n%s", out)
	}

	// The repaired container must pass fsck and normal decompression.
	if out, code := runBin(t, bin, "fsck", repaired); code != 0 {
		t.Fatalf("fsck of repaired file exit %d\n%s", code, out)
	}
	fixed, err := os.ReadFile(repaired)
	if err != nil {
		t.Fatal(err)
	}
	recon, rdims, err := sperr.Decompress(fixed)
	if err != nil {
		t.Fatalf("decompress repaired: %v", err)
	}
	if rdims != dims {
		t.Fatalf("dims %v, want %v", rdims, dims)
	}
	// Survivors decode bit-identically; the replaced chunk's region reads
	// zero. Identify the damaged chunk's region via the audit report.
	rep, err := sperr.Audit(mut)
	if err != nil {
		t.Fatal(err)
	}
	damagedIdx := rep.SkippedIndices()
	if len(damagedIdx) != 1 || damagedIdx[0] != 2 {
		t.Fatalf("audit skipped %v, want [2]", damagedIdx)
	}
	c := rep.Chunks[2]
	inDamaged := func(x, y, z int) bool {
		return x >= c.Origin[0] && x < c.Origin[0]+c.Dims.NX &&
			y >= c.Origin[1] && y < c.Origin[1]+c.Dims.NY &&
			z >= c.Origin[2] && z < c.Origin[2]+c.Dims.NZ
	}
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				i := (z*dims[1]+y)*dims[0] + x
				if inDamaged(x, y, z) {
					if recon[i] != 0 {
						t.Fatalf("replaced chunk sample (%d,%d,%d) = %g, want 0", x, y, z, recon[i])
					}
				} else if math.Float64bits(recon[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("survivor sample (%d,%d,%d) differs: %g vs %g", x, y, z, recon[i], orig[i])
				}
			}
		}
	}
}

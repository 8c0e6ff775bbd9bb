package sperr

// Frozen-fixture coverage for the retired container v1: every public
// reader refuses testdata/golden_pwe_24x17x9.sperr (never regenerated) as
// ErrCorrupt naming `sperr repair`, and Repair upgrades it to a v2
// container whose Describe reports the pinned geometry and whose regions
// match the pinned reconstruction exactly. Also pins
// DecompressFloat32Workers parity: every worker count must produce the
// same float32 volume.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readV1Fixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden_pwe_24x17x9.sperr"))
	if err != nil {
		t.Fatalf("missing v1 fixture (must never be regenerated): %v", err)
	}
	return b
}

// upgradedV1Fixture is the v1 fixture as Repair upgrades it: every chunk
// kept, the report naming the input's version.
func upgradedV1Fixture(t *testing.T) []byte {
	t.Helper()
	up, rep, err := Repair(readV1Fixture(t))
	if err != nil {
		t.Fatalf("Repair(v1): %v", err)
	}
	if rep.Version != 1 || rep.Recovered != 4 || rep.Skipped != 0 {
		t.Fatalf("Repair(v1) report %+v", rep)
	}
	return up
}

// v1Refusals runs every public reader over stream and returns each one's
// error by name.
func v1Refusals(stream []byte) map[string]error {
	errs := map[string]error{}
	box := [3]int{4, 4, 2}
	_, _, errs["Decompress"] = Decompress(stream)
	_, _, errs["DecompressWorkers"] = DecompressWorkers(stream, 2)
	_, _, errs["DecompressFloat32"] = DecompressFloat32(stream)
	_, _, errs["DecompressFloat32Workers"] = DecompressFloat32Workers(stream, 2)
	_, errs["DecompressRegion"] = DecompressRegion(stream, [3]int{}, box)
	_, errs["DecompressRegionWorkers"] = DecompressRegionWorkers(stream, [3]int{}, box, 2)
	_, _, errs["DecompressPartial"] = DecompressPartial(stream, 0.5)
	_, _, errs["DecompressLowRes"] = DecompressLowRes(stream, 1)
	_, errs["Describe"] = Describe(stream)
	if dec, err := NewDecoder(bytes.NewReader(stream)); err != nil {
		errs["NewDecoder"] = err
	} else {
		errs["NewDecoder"] = dec.ForEachChunk(func(DecodedChunk) error { return nil })
	}
	_, _, _, errs["DecompressSalvage"] = DecompressSalvage(stream)
	_, errs["Audit"] = Audit(stream)
	_, errs["SliceShard"] = SliceShard(stream, func(int) bool { return true })
	_, errs["MergeShards"] = MergeShards(stream, stream)
	_, errs["OwnedChunks"] = OwnedChunks(stream)
	return errs
}

// TestV1FixtureDescribe: every public reader refuses the v1 fixture as
// ErrCorrupt naming the upgrade command, and the upgrade reports the
// fixture's full geometry — chunk tiling included.
func TestV1FixtureDescribe(t *testing.T) {
	for name, err := range v1Refusals(readV1Fixture(t)) {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "sperr repair") {
			t.Errorf("%s(v1) = %v, want ErrCorrupt naming sperr repair", name, err)
		}
	}
	stream := upgradedV1Fixture(t)
	info, err := Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("Version = %d, want 2", info.Version)
	}
	if info.Dims != [3]int{24, 17, 9} {
		t.Fatalf("Dims = %v, want 24x17x9", info.Dims)
	}
	if info.ChunkDims != [3]int{16, 16, 16} {
		t.Fatalf("ChunkDims = %v, want 16^3", info.ChunkDims)
	}
	if info.NumChunks != 4 { // 2x2x1 tiling of 24x17x9
		t.Fatalf("NumChunks = %d, want 4", info.NumChunks)
	}
	if info.Mode != "pwe" || info.Tolerance != goldenTol {
		t.Fatalf("Mode/Tolerance = %q/%g, want pwe/%g", info.Mode, info.Tolerance, goldenTol)
	}
	if info.CompressedBytes != len(stream) {
		t.Fatalf("CompressedBytes = %d, stream is %d", info.CompressedBytes, len(stream))
	}
}

// cutout extracts origin+dims from a full row-major volume.
func cutout(full []float64, vd, origin, dims [3]int) []float64 {
	out := make([]float64, dims[0]*dims[1]*dims[2])
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				src := ((origin[2]+z)*vd[1]+origin[1]+y)*vd[0] + origin[0] + x
				out[(z*dims[1]+y)*dims[0]+x] = full[src]
			}
		}
	}
	return out
}

// TestV1FixtureRegion: regions cut from the upgraded v1 fixture must
// match the pinned full reconstruction bit-for-bit, at every worker
// count, including cuts that cross chunk boundaries and hug remainder
// chunks.
func TestV1FixtureRegion(t *testing.T) {
	stream := upgradedV1Fixture(t)
	full, vd, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if got := reconDigest(full); got != goldenV1ReconSHA256 {
		t.Fatalf("full reconstruction drifted: %s", got)
	}

	regions := []struct {
		name         string
		origin, dims [3]int
	}{
		{"full-volume", [3]int{0, 0, 0}, [3]int{24, 17, 9}},
		{"single-point", [3]int{23, 16, 8}, [3]int{1, 1, 1}},
		{"chunk-interior", [3]int{2, 3, 1}, [3]int{5, 4, 3}},
		{"crosses-x-boundary", [3]int{14, 0, 0}, [3]int{6, 5, 5}},
		{"crosses-xy-boundary", [3]int{12, 12, 2}, [3]int{10, 5, 4}},
		{"remainder-corner", [3]int{20, 16, 6}, [3]int{4, 1, 3}},
	}
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			want := cutout(full, vd, rg.origin, rg.dims)
			got, err := DecompressRegion(stream, rg.origin, rg.dims)
			if err != nil {
				t.Fatalf("DecompressRegion: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("region size %d, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("region sample %d = %g, full reconstruction has %g", i, got[i], want[i])
				}
			}
			for _, w := range []int{1, 2, 4} {
				pw, err := DecompressRegionWorkers(stream, rg.origin, rg.dims, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				for i := range want {
					if math.Float64bits(pw[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d sample %d differs", w, i)
					}
				}
			}
		})
	}

	// Out-of-bounds requests fail cleanly, not panic.
	if _, err := DecompressRegion(stream, [3]int{20, 0, 0}, [3]int{10, 2, 2}); err == nil {
		t.Fatal("out-of-bounds region did not error")
	}
}

// TestV1FixtureRegionCorrupt: structural damage to the v1 container
// surfaces as ErrCorrupt from the seekable paths — never a panic — and
// Repair refuses to upgrade it rather than salvaging around it. (v1
// frames carry no checksum, so only damage that breaks the framing, a
// chunk header or a decode is detectable; that is why v1 is retired.)
func TestV1FixtureRegionCorrupt(t *testing.T) {
	stream := readV1Fixture(t)
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"header-flip":   func(b []byte) []byte { b[9] ^= 0xff; return b },
		"trailing-byte": func(b []byte) []byte { return append(b, 0) },
		"empty":         func(b []byte) []byte { return nil },
	} {
		mut := mutate(append([]byte(nil), stream...))
		if _, err := DecompressRegion(mut, [3]int{0, 0, 0}, [3]int{4, 4, 2}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecompressRegion returned %v, want ErrCorrupt", name, err)
		}
		if _, err := Describe(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Describe returned %v, want ErrCorrupt", name, err)
		}
		if _, _, err := Repair(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Repair returned %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecompressFloat32WorkersParity: the workers-aware float32 decode
// must produce bit-identical float32 volumes at every worker count, and
// match narrowing the float64 decode.
func TestDecompressFloat32WorkersParity(t *testing.T) {
	data, dims := streamTestInput()
	f32 := make([]float32, len(data))
	for i, v := range data {
		f32[i] = float32(v)
	}
	stream, _, err := CompressPWEFloat32(f32, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}

	wide, wdims, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, len(wide))
	for i, v := range wide {
		want[i] = float32(v)
	}

	for _, w := range []int{0, 1, 2, 3, 8} {
		got, gdims, err := DecompressFloat32Workers(stream, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if gdims != wdims {
			t.Fatalf("workers=%d dims %v, want %v", w, gdims, wdims)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("workers=%d sample %d = %g, want %g", w, i, got[i], want[i])
			}
		}
	}

	// The plain wrapper is the workers=0 path.
	got, _, err := DecompressFloat32(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("DecompressFloat32 sample %d differs", i)
		}
	}
}

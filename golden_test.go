package sperr

// Golden-stream format regression test. A small compressed fixture is
// checked into testdata/; the test asserts that today's encoder reproduces
// it bit-exactly and that today's decoder reconstructs it within the
// recorded tolerance. Any change to the on-disk format — container layout,
// chunk header, SPECK or outlier bitstream, lossless wrapping — fails this
// test, so refactors (e.g. scratch-buffer pooling) cannot silently change
// the format. Regenerate deliberately with:
//
//	go test -run TestGoldenStream -update-golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden stream fixture")

// goldenInput is the deterministic volume the fixture encodes: an odd,
// non-chunk-aligned extent so remainder chunks are part of the pinned
// format.
func goldenInput() ([]float64, [3]int) {
	return demoField(24, 17, 9, 7), [3]int{24, 17, 9}
}

const goldenTol = 1e-3

var goldenOpts = &Options{ChunkDims: [3]int{16, 16, 16}, Workers: 2}

func TestGoldenStream(t *testing.T) {
	data, dims := goldenInput()
	stream, _, err := CompressPWE(data, dims, goldenTol, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_pwe_24x17x9_v2.sperr")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(stream))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden): %v", err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("encoder output diverged from golden fixture: %d vs %d bytes; "+
			"the on-disk format changed", len(stream), len(want))
	}

	// The checked-in fixture must still decode bit-for-bit to a valid
	// reconstruction honoring the recorded tolerance.
	rec, rdims, err := Decompress(want)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if rdims != dims {
		t.Fatalf("golden dims %v, want %v", rdims, dims)
	}
	for i := range data {
		if math.Abs(rec[i]-data[i]) > goldenTol*(1+1e-9) {
			t.Fatalf("golden PWE violated at %d: %g vs %g", i, rec[i], data[i])
		}
	}

	// Describe must keep reporting the pinned geometry and mode.
	info, err := Describe(want)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dims != dims || info.Mode != "pwe" || info.Tolerance != goldenTol {
		t.Fatalf("golden Describe drifted: %+v", info)
	}
	if info.Version != 2 {
		t.Fatalf("golden container version %d, want 2", info.Version)
	}
	if info.NumChunks != 4 { // 2x2x1 tiling of 24x17x9 by 16^3
		t.Fatalf("golden chunk count %d, want 4", info.NumChunks)
	}
}

// goldenV1ReconSHA256 pins the exact reconstruction of the checked-in v1
// fixture (little-endian float64 bytes of the decode), captured on the
// tree that wrote the fixture. Container v1 is retired, so the fixture
// now reaches these samples only through its upgrade (Repair).
const goldenV1ReconSHA256 = "dc9c7a53fd9714c20e98a1ff32067fbafb24e6ca6f2886bc7e152511884d9408"

// goldenV1UpgradeSHA256 pins the v2 container Repair upgrades the v1
// fixture to, the same bytes the v1 repair path has always written.
const goldenV1UpgradeSHA256 = "82c27a6df4783d930f226731f006cae537834f1b9d6f6c1e6fdfb52acf550c4b"

func reconDigest(data []float64) string {
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}

// TestGoldenV1Compat: the frozen v1 fixture is refused by the readers
// and upgraded by Repair to a pinned v2 container that decodes to the
// pinned reconstruction — through the one-shot wrapper and through the
// streaming Decoder — and describes as the v1 stream always did.
func TestGoldenV1Compat(t *testing.T) {
	v1 := readV1Fixture(t)
	if _, _, err := Decompress(v1); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "sperr repair") {
		t.Fatalf("Decompress(v1) = %v, want ErrCorrupt naming sperr repair", err)
	}
	up := upgradedV1Fixture(t)
	if h := sha256.Sum256(up); hex.EncodeToString(h[:]) != goldenV1UpgradeSHA256 {
		t.Fatalf("v1 upgrade drifted: sha256 %x, want %s", h, goldenV1UpgradeSHA256)
	}
	_, dims := goldenInput()

	rec, rdims, err := Decompress(up)
	if err != nil {
		t.Fatalf("upgraded v1 fixture does not decode: %v", err)
	}
	if rdims != dims {
		t.Fatalf("v1 dims %v, want %v", rdims, dims)
	}
	if got := reconDigest(rec); got != goldenV1ReconSHA256 {
		t.Fatalf("v1 reconstruction drifted: sha256 %s, want %s", got, goldenV1ReconSHA256)
	}

	dec, err := NewDecoder(bytes.NewReader(up))
	if err != nil {
		t.Fatalf("streaming Decoder rejects the upgrade: %v", err)
	}
	if v := dec.FormatVersion(); v != 2 {
		t.Fatalf("upgraded v1 fixture reports version %d", v)
	}
	srec, sdims, err := dec.DecodeAll()
	if err != nil {
		t.Fatalf("streaming decode of the upgrade: %v", err)
	}
	if sdims != dims || reconDigest(srec) != goldenV1ReconSHA256 {
		t.Fatalf("streaming decode of the upgrade differs from pinned reconstruction")
	}

	// What Describe reported for the v1 stream itself before the
	// retirement.
	info, err := Describe(up)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Dims != dims || info.ChunkDims != [3]int{16, 16, 16} ||
		info.Mode != "pwe" || info.Tolerance != goldenTol ||
		info.SpeckBits != 45520 || info.OutlierBits != 1038 {
		t.Fatalf("v1 upgrade Describe drifted: %+v", info)
	}
}

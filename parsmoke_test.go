package sperr

// Benchmark-tier smoke for the worker budget: Workers only sets how many
// chunks are coded at once, so the compressed bytes at any worker count
// must hash identically to the serial coder's, pinned here on both golden
// fixtures. `make bench-kernels` runs this before the timing rows, so a
// determinism break can never hide behind a speedup number.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func floatHash(v []float64) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestParallelCoderMatchesSerialGolden(t *testing.T) {
	data, dims := goldenInput()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_pwe_24x17x9_v2.sperr"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	wantHash := sha256.Sum256(want)
	for _, workers := range []int{1, 2, 3, 8} {
		opts := *goldenOpts
		opts.Workers = workers
		stream, _, err := CompressPWE(data, dims, goldenTol, &opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sha256.Sum256(stream) != wantHash {
			t.Fatalf("workers=%d: compressed stream hash diverged from the serial/golden bytes", workers)
		}
	}
	// Decoder side, on both checked-in 24x17x9 fixtures (the retired v1
	// one as Repair upgrades it, and v2): the reconstruction hash must not
	// depend on the worker count either.
	for _, name := range []string{"golden_pwe_24x17x9.sperr", "golden_pwe_24x17x9_v2.sperr"} {
		stream, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("missing golden fixture %s: %v", name, err)
		}
		if name == "golden_pwe_24x17x9.sperr" {
			stream = upgradedV1Fixture(t)
		}
		ref, refDims, err := DecompressWorkers(stream, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if refDims != [3]int{24, 17, 9} {
			t.Fatalf("%s: dims %v", name, refDims)
		}
		refHash := floatHash(ref)
		for _, workers := range []int{2, 8} {
			out, _, err := DecompressWorkers(stream, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if floatHash(out) != refHash {
				t.Fatalf("%s workers=%d: reconstruction hash diverged from serial decode", name, workers)
			}
		}
	}
}

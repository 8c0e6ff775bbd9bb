package codec

import (
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

// Corruption robustness: a decoder fed damaged input must return an error
// or garbage data — never panic, hang, or index out of range. These tests
// exercise systematic bit flips, truncations, and random noise.

func TestDecodeChunkBitFlips(t *testing.T) {
	d := grid.D3(12, 12, 12)
	data := smoothField(d, 321)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		corrupted := append([]byte(nil), stream...)
		// Flip 1-4 random bits.
		for k := 0; k <= rng.Intn(4); k++ {
			i := rng.Intn(len(corrupted))
			corrupted[i] ^= 1 << rng.Intn(8)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iter %d: panic on corrupted stream: %v", iter, r)
				}
			}()
			rec, err := DecodeChunk(corrupted, d)
			if err == nil && len(rec) != d.Len() {
				t.Fatalf("iter %d: wrong output size %d", iter, len(rec))
			}
		}()
	}
}

func TestDecodeChunkTruncations(t *testing.T) {
	d := grid.D2(24, 24)
	data := smoothField(d, 77)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(stream); cut += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut=%d: panic: %v", cut, r)
				}
			}()
			_, _ = DecodeChunk(stream[:cut], d)
		}()
	}
}

func TestDecodeChunkRandomNoise(t *testing.T) {
	d := grid.D3(8, 8, 8)
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		noise := make([]byte, rng.Intn(512))
		rng.Read(noise)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iter %d: panic on noise: %v", iter, r)
				}
			}()
			_, _ = DecodeChunk(noise, d)
			_, _ = DecodeChunkPartial(noise, d, 0.5, nil)
			_, _, _ = DecodeChunkLowRes(noise, d, 1, nil)
		}()
	}
}

// Decoding a valid stream against the wrong dims must not panic (the
// container layer normally guarantees agreement; the codec should still
// fail safe).
func TestDecodeChunkWrongDims(t *testing.T) {
	d := grid.D3(16, 16, 16)
	data := smoothField(d, 9)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, wrong := range []grid.Dims{
		grid.D3(8, 8, 8),
		grid.D3(16, 16, 8),
		grid.D2(32, 32),
		grid.D3(17, 16, 16),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("dims %v: panic: %v", wrong, r)
				}
			}()
			rec, err := DecodeChunk(stream, wrong)
			if err == nil && len(rec) != wrong.Len() {
				t.Fatalf("dims %v: silent wrong-size output", wrong)
			}
		}()
	}
}

package speck

import (
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

func TestEntropyRoundTrip(t *testing.T) {
	for _, d := range []grid.Dims{
		grid.D3(8, 8, 8),
		grid.D3(16, 16, 16),
		grid.D3(13, 7, 5),
		grid.D2(32, 32),
	} {
		rng := rand.New(rand.NewSource(int64(d.Len())))
		coeffs := randCoeffs(rng, d.Len())
		q := 0.25
		res := EncodeEntropy(coeffs, d, q)
		got := DecodeEntropy(res.Stream, d, q, res.NumPlanes)
		for i, want := range coeffs {
			if math.Abs(want) < q {
				if got[i] != 0 {
					t.Fatalf("%v idx %d: dead zone violated", d, i)
				}
				continue
			}
			if err := math.Abs(got[i] - want); err > q/2+1e-12 {
				t.Fatalf("%v idx %d: error %g > q/2", d, i, err)
			}
		}
	}
}

// The arithmetic-coded variant must not be larger than the raw variant by
// more than the coder's constant overhead, and on realistic (compressible)
// significance maps it should win.
func TestEntropySavesOnStructuredData(t *testing.T) {
	d := grid.D3(24, 24, 24)
	// Sparse, clustered coefficients: a few large values, most zero —
	// exactly what wavelet transforms produce and where significance bits
	// are highly skewed.
	coeffs := make([]float64, d.Len())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		coeffs[rng.Intn(len(coeffs))] = rng.NormFloat64() * 100
	}
	q := 0.01
	raw := Encode(coeffs, d, q, 0)
	ac := EncodeEntropy(coeffs, d, q)
	if ac.Bits >= raw.Bits {
		t.Errorf("entropy coding did not help on sparse data: %d vs %d bits",
			ac.Bits, raw.Bits)
	}
	// And the reconstruction must match the raw decode exactly (same
	// traversal, same quantization).
	a := Decode(raw.Stream, raw.Bits, d, q, raw.NumPlanes)
	b := DecodeEntropy(ac.Stream, d, q, ac.NumPlanes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("idx %d: raw %g vs entropy %g", i, a[i], b[i])
		}
	}
}

func TestEntropyPanicsOnSizeBounded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for entropy + maxBits")
		}
	}()
	encode(make([]float64, 8), grid.D3(2, 2, 2), 1, 10, true, nil)
}

func TestEntropyZeroInput(t *testing.T) {
	d := grid.D3(4, 4, 4)
	res := EncodeEntropy(make([]float64, d.Len()), d, 1)
	if res.NumPlanes != 0 {
		t.Fatalf("planes = %d", res.NumPlanes)
	}
	got := DecodeEntropy(res.Stream, d, 1, res.NumPlanes)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("idx %d: %g", i, v)
		}
	}
}

func BenchmarkEncodeEntropy32(b *testing.B) {
	d := grid.D3(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	coeffs := randCoeffs(rng, d.Len())
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeEntropy(coeffs, d, 0.1)
	}
}

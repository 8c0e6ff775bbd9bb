package speck

import (
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

func randCoeffs(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		// Heavy-tailed, like wavelet coefficients of real data.
		s[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*2)
	}
	return s
}

func TestNumPlanes(t *testing.T) {
	cases := []struct {
		maxMag, q float64
		want      int
	}{
		{0, 1, 0},
		{0.5, 1, 0},
		{1, 1, 1},     // n=0: q*2^0 <= 1
		{1.9, 1, 1},   // only n=0
		{2, 1, 2},     // n=1: 2 <= 2
		{3.9, 1, 2},   //
		{4, 1, 3},     //
		{1024, 1, 11}, //
		{3, 1.5, 2},   // q=1.5: 1.5*2=3 <= 3
		{2.9, 1.5, 1},
		{0x1p1000, 0x1p-1000, 2001}, // maxMag/q overflows float64
		{0x1p-1070, 0x1p-1074, 5},   // subnormal step
		{math.Inf(1), 1, 0},         // an overflowed transform codes nothing
		{math.NaN(), 1, 0},
	}
	for _, c := range cases {
		if got := NumPlanes(c.maxMag, c.q); got != c.want {
			t.Errorf("NumPlanes(%g, %g) = %d, want %d", c.maxMag, c.q, got, c.want)
		}
	}
}

// Full decode (quality mode) must reconstruct every coefficient outside the
// dead zone to within q/2, and dead-zone coefficients to zero.
func TestQualityModeErrorBound(t *testing.T) {
	for _, d := range []grid.Dims{
		grid.D3(8, 8, 8),
		grid.D3(16, 16, 16),
		grid.D3(13, 7, 5),
		grid.D2(32, 32),
		grid.D2(31, 17),
		grid.D3(1, 1, 64), // degenerate 1D layout
	} {
		rng := rand.New(rand.NewSource(int64(d.Len())))
		coeffs := randCoeffs(rng, d.Len())
		q := 0.25
		res := Encode(coeffs, d, q, 0)
		got := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
		for i, want := range coeffs {
			if math.Abs(want) < q {
				if got[i] != 0 {
					t.Fatalf("%v idx %d: dead-zone coeff %g decoded as %g, want 0", d, i, want, got[i])
				}
				continue
			}
			if err := math.Abs(got[i] - want); err > q/2+1e-12 {
				t.Fatalf("%v idx %d: coeff %g decoded as %g, error %g > q/2=%g",
					d, i, want, got[i], err, q/2)
			}
		}
	}
}

func TestSignsPreserved(t *testing.T) {
	d := grid.D3(8, 8, 8)
	coeffs := make([]float64, d.Len())
	rng := rand.New(rand.NewSource(3))
	for i := range coeffs {
		coeffs[i] = float64(1+rng.Intn(100)) * float64(1-2*(rng.Intn(2)))
	}
	q := 0.5
	res := Encode(coeffs, d, q, 0)
	got := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
	for i := range coeffs {
		if coeffs[i]*got[i] < 0 {
			t.Fatalf("idx %d: sign flipped: %g -> %g", i, coeffs[i], got[i])
		}
	}
}

func TestAllZeroInput(t *testing.T) {
	d := grid.D3(8, 8, 8)
	coeffs := make([]float64, d.Len())
	res := Encode(coeffs, d, 1.0, 0)
	if res.NumPlanes != 0 || res.Bits != 0 {
		t.Fatalf("zero input: planes=%d bits=%d, want 0, 0", res.NumPlanes, res.Bits)
	}
	got := Decode(res.Stream, res.Bits, d, 1.0, res.NumPlanes)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("idx %d: got %g, want 0", i, v)
		}
	}
}

func TestSingleSignificantCoefficient(t *testing.T) {
	d := grid.D3(16, 16, 16)
	coeffs := make([]float64, d.Len())
	coeffs[d.Index(5, 11, 3)] = -77.5
	q := 0.01
	res := Encode(coeffs, d, q, 0)
	got := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
	for i, v := range got {
		want := coeffs[i]
		if math.Abs(v-want) > q/2+1e-12 {
			t.Fatalf("idx %d: got %g, want %g +- %g", i, v, want, q/2)
		}
	}
}

// The embedded property: decoding any prefix must (a) not crash, (b) give
// monotonically non-increasing error as more bits are provided.
func TestEmbeddedPrefixDecoding(t *testing.T) {
	d := grid.D3(16, 16, 16)
	rng := rand.New(rand.NewSource(11))
	coeffs := randCoeffs(rng, d.Len())
	q := 0.1
	res := Encode(coeffs, d, q, 0)

	rmse := func(rec []float64) float64 {
		var s float64
		for i := range rec {
			e := rec[i] - coeffs[i]
			s += e * e
		}
		return math.Sqrt(s / float64(len(rec)))
	}
	prev := math.Inf(1)
	for _, frac := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 1.0} {
		nbits := uint64(float64(res.Bits) * frac)
		rec := Decode(res.Stream, nbits, d, q, res.NumPlanes)
		e := rmse(rec)
		if e > prev*1.02 { // tiny slack for mid-pass estimate jitter
			t.Fatalf("error increased with more bits: %g bits -> rmse %g, prev %g",
				float64(nbits), e, prev)
		}
		prev = e
	}
	if prev > q/2+1e-12 {
		t.Fatalf("full decode rmse %g exceeds q/2", prev)
	}
}

// Size-bounded mode must respect the bit budget and still decode.
func TestSizeBoundedMode(t *testing.T) {
	d := grid.D3(16, 16, 16)
	rng := rand.New(rand.NewSource(5))
	coeffs := randCoeffs(rng, d.Len())
	q := 1e-6
	budget := uint64(2 * d.Len()) // 2 bits per point
	res := Encode(coeffs, d, q, budget)
	if res.Bits > budget {
		t.Fatalf("Bits = %d exceeds budget %d", res.Bits, budget)
	}
	if len(res.Stream) > int((budget+7)/8) {
		t.Fatalf("stream has %d bytes for %d-bit budget", len(res.Stream), budget)
	}
	rec := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
	// Low-rate reconstruction should still reduce error vs. all-zeros.
	var e0, e1 float64
	for i := range coeffs {
		e0 += coeffs[i] * coeffs[i]
		diff := rec[i] - coeffs[i]
		e1 += diff * diff
	}
	if e1 >= e0 {
		t.Fatalf("2 BPP reconstruction no better than zeros: %g vs %g", e1, e0)
	}
}

// Decoding with a larger budget than bits present must behave as full decode.
func TestDecodeOverBudget(t *testing.T) {
	d := grid.D2(16, 16)
	rng := rand.New(rand.NewSource(8))
	coeffs := randCoeffs(rng, d.Len())
	q := 0.5
	res := Encode(coeffs, d, q, 0)
	a := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
	b := Decode(res.Stream, res.Bits+1000, d, q, res.NumPlanes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("idx %d: over-budget decode differs: %g vs %g", i, a[i], b[i])
		}
	}
}

// Arbitrary q: the same data coded at q and at q/2 should use more bits at
// q/2 and achieve lower error (paper Section III-C).
func TestQualityVsQ(t *testing.T) {
	d := grid.D3(12, 12, 12)
	rng := rand.New(rand.NewSource(21))
	coeffs := randCoeffs(rng, d.Len())
	rmseAt := func(q float64) (float64, uint64) {
		res := Encode(coeffs, d, q, 0)
		rec := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
		var s float64
		for i := range rec {
			e := rec[i] - coeffs[i]
			s += e * e
		}
		return math.Sqrt(s / float64(len(rec))), res.Bits
	}
	coarse, bitsCoarse := rmseAt(0.8)
	fine, bitsFine := rmseAt(0.1)
	if fine >= coarse {
		t.Fatalf("finer q did not reduce error: %g vs %g", fine, coarse)
	}
	if bitsFine <= bitsCoarse {
		t.Fatalf("finer q did not use more bits: %d vs %d", bitsFine, bitsCoarse)
	}
}

func TestSplitSetAlignment(t *testing.T) {
	s := set{x: 0, y: 0, z: 0, nx: 7, ny: 6, nz: 1}
	var kids [8]set
	if n := splitSet(&s, &kids); n != 4 {
		t.Fatalf("expected 4 children for 2D set, got %d", n)
	}
	// x splits at ceil(7/2)=4, y at ceil(6/2)=3.
	want := []set{
		{x: 0, nx: 4, y: 0, ny: 3, z: 0, nz: 1},
		{x: 4, nx: 3, y: 0, ny: 3, z: 0, nz: 1},
		{x: 0, nx: 4, y: 3, ny: 3, z: 0, nz: 1},
		{x: 4, nx: 3, y: 3, ny: 3, z: 0, nz: 1},
	}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("child %d = %+v, want %+v", i, kids[i], want[i])
		}
	}
	one := set{nx: 1, ny: 1, nz: 1}
	if !one.single() {
		t.Fatal("1x1x1 should be single")
	}
}

// Randomized cross-check across many shapes and q values.
func TestRandomizedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		d := grid.D3(1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20))
		coeffs := randCoeffs(rng, d.Len())
		q := math.Exp(rng.NormFloat64())
		res := Encode(coeffs, d, q, 0)
		rec := Decode(res.Stream, res.Bits, d, q, res.NumPlanes)
		for i := range coeffs {
			if math.Abs(coeffs[i]) < q {
				if rec[i] != 0 {
					t.Fatalf("iter %d %v: dead zone violated at %d", iter, d, i)
				}
			} else if math.Abs(rec[i]-coeffs[i]) > q/2*(1+1e-9) {
				t.Fatalf("iter %d %v q=%g: idx %d err %g > %g",
					iter, d, q, i, math.Abs(rec[i]-coeffs[i]), q/2)
			}
		}
	}
}

func BenchmarkEncode32(b *testing.B) {
	d := grid.D3(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	coeffs := randCoeffs(rng, d.Len())
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(coeffs, d, 0.1, 0)
	}
}

func BenchmarkDecode32(b *testing.B) {
	d := grid.D3(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	coeffs := randCoeffs(rng, d.Len())
	res := Encode(coeffs, d, 0.1, 0)
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decode(res.Stream, res.Bits, d, 0.1, res.NumPlanes)
	}
}

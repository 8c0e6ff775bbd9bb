package codec

import (
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/speck"
)

// smoothField builds a realistic smooth-plus-noise scientific field.
func smoothField(d grid.Dims, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, d.Len())
	fx := 0.5 + rng.Float64()
	fy := 0.3 + rng.Float64()
	fz := 0.2 + rng.Float64()
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				v := math.Sin(fx*float64(x)*0.3)*math.Cos(fy*float64(y)*0.2) +
					0.5*math.Sin(fz*float64(z)*0.15+1.0) +
					0.01*rng.NormFloat64()
				data[d.Index(x, y, z)] = v * 100
			}
		}
	}
	return data
}

func maxErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// The central SPERR guarantee (paper abstract, Section IV): in PWE mode the
// reconstruction never deviates from the original by more than Tol.
func TestPWEGuarantee(t *testing.T) {
	dims := []grid.Dims{
		grid.D3(32, 32, 32),
		grid.D3(17, 23, 9),
		grid.D2(64, 48),
	}
	tols := []float64{10, 1, 0.1, 1e-3, 1e-6}
	for _, d := range dims {
		data := smoothField(d, int64(d.Len()))
		for _, tol := range tols {
			stream, st, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol})
			if err != nil {
				t.Fatalf("%v tol=%g: %v", d, tol, err)
			}
			rec, err := DecodeChunk(stream, d)
			if err != nil {
				t.Fatalf("%v tol=%g: decode: %v", d, tol, err)
			}
			if e := maxErr(data, rec); e > tol*(1+1e-9) {
				t.Errorf("%v tol=%g: max error %g exceeds tolerance (outliers=%d)",
					d, tol, e, st.NumOutliers)
			}
		}
	}
}

// Randomized adversarial inputs (pure noise — worst case for wavelets) must
// still satisfy the PWE bound.
func TestPWEGuaranteeNoise(t *testing.T) {
	d := grid.D3(16, 16, 16)
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 10; iter++ {
		data := make([]float64, d.Len())
		for i := range data {
			data[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*3)
		}
		tol := math.Exp(rng.NormFloat64()*2 - 2)
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, rec); e > tol*(1+1e-9) {
			t.Fatalf("iter %d tol=%g: max error %g", iter, tol, e)
		}
	}
}

func TestBPPModeRespectsBudget(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 5)
	for _, bpp := range []float64{0.5, 1, 2, 4} {
		stream, st, err := EncodeChunk(data, d, Params{
			Mode: ModeBPP, BitsPerPoint: bpp, DisableLossless: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(stream)*8) / float64(d.Len())
		if got > bpp*1.05+0.1 {
			t.Errorf("bpp=%g: achieved %g bits/point", bpp, got)
		}
		if _, err := DecodeChunk(stream, d); err != nil {
			t.Errorf("bpp=%g: decode: %v", bpp, err)
		}
		_ = st
	}
}

// Higher rate must give lower error (rate-distortion monotonicity).
func TestBPPRateDistortionMonotone(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 9)
	prev := math.Inf(1)
	for _, bpp := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: bpp})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatal(err)
		}
		var mse float64
		for i := range data {
			e := data[i] - rec[i]
			mse += e * e
		}
		if mse > prev*1.01 {
			t.Errorf("bpp=%g: mse %g worse than lower rate %g", bpp, mse, prev)
		}
		prev = mse
	}
}

// A tighter tolerance must not produce a larger max error and should cost
// more bits.
func TestToleranceMonotonicity(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 13)
	var prevBytes int
	for _, tol := range []float64{10, 1, 0.1, 0.01} {
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol})
		if err != nil {
			t.Fatal(err)
		}
		if prevBytes > 0 && len(stream) < prevBytes {
			t.Errorf("tol=%g: %d bytes, fewer than looser tolerance %d",
				tol, len(stream), prevBytes)
		}
		prevBytes = len(stream)
	}
}

func TestQFactorSweep(t *testing.T) {
	// All QFactor settings must preserve the PWE guarantee; they only move
	// the coefficient/outlier balance (paper Section IV-D).
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 21)
	tol := 0.05
	for _, qf := range []float64{1.0, 1.25, 1.5, 2.0, 3.0} {
		stream, st, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, QFactor: qf})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, rec); e > tol*(1+1e-9) {
			t.Errorf("qf=%g: max error %g > tol %g", qf, e, tol)
		}
		_ = st
	}
}

// Larger q produces more outliers (paper Figure 2/4 relationship).
func TestQControlsOutliers(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 31)
	tol := 0.05
	_, stLow, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, QFactor: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	_, stHigh, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, QFactor: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if stHigh.NumOutliers <= stLow.NumOutliers {
		t.Errorf("q=3t produced %d outliers, q=1t produced %d; expected more at larger q",
			stHigh.NumOutliers, stLow.NumOutliers)
	}
	if stHigh.SpeckBits >= stLow.SpeckBits {
		t.Errorf("q=3t used %d SPECK bits, q=1t used %d; expected fewer at larger q",
			stHigh.SpeckBits, stLow.SpeckBits)
	}
}

func TestConstantField(t *testing.T) {
	d := grid.D3(16, 16, 16)
	data := make([]float64, d.Len())
	for i := range data {
		data[i] = 42.5
	}
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeChunk(stream, d)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, rec); e > 1e-6 {
		t.Fatalf("constant field error %g", e)
	}
	// A constant field should compress extremely well.
	if len(stream) > d.Len() {
		t.Errorf("constant field took %d bytes for %d points", len(stream), d.Len())
	}
}

func TestAllZeroField(t *testing.T) {
	d := grid.D2(32, 32)
	data := make([]float64, d.Len())
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeChunk(stream, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rec {
		if v != 0 {
			t.Fatalf("idx %d: got %g, want 0", i, v)
		}
	}
}

func TestParamValidation(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := make([]float64, d.Len())
	if _, _, err := EncodeChunk(data, d, Params{Mode: ModePWE}); err == nil {
		t.Error("PWE mode without tolerance should fail")
	}
	if _, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP}); err == nil {
		t.Error("BPP mode without rate should fail")
	}
	if _, _, err := EncodeChunk(data[:10], d, Params{Mode: ModePWE, Tol: 1}); err == nil {
		t.Error("mismatched dims should fail")
	}
	if _, err := DecodeChunk(nil, d); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := DecodeChunk([]byte{0x01, 0x02}, d); err == nil {
		t.Error("garbage stream should fail")
	}
}

func TestNonFiniteInputRejected(t *testing.T) {
	d := grid.D3(4, 4, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data := make([]float64, d.Len())
		data[13] = bad
		if _, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.1}); err == nil {
			t.Errorf("input with %g should be rejected (it would void the PWE guarantee)", bad)
		}
		if _, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: 4}); err == nil {
			t.Errorf("BPP mode should also reject %g", bad)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 41)
	_, st, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPoints != d.Len() {
		t.Errorf("NumPoints = %d, want %d", st.NumPoints, d.Len())
	}
	if st.SpeckBits == 0 {
		t.Error("SpeckBits should be nonzero")
	}
	if st.BPP() <= 0 {
		t.Error("BPP should be positive")
	}
	if st.NumOutliers > 0 && st.BitsPerOutlier() <= 0 {
		t.Error("BitsPerOutlier should be positive when outliers exist")
	}
	if st.OutlierPercent() < 0 || st.OutlierPercent() > 100 {
		t.Errorf("OutlierPercent = %g", st.OutlierPercent())
	}
}

// TestPWELocateWithoutReplay covers the outlier-locate branch that real
// decodes the SPECK stream because the encode could not take the integer
// path (speck.ReplayScratch refuses): a field wholly inside the dead zone
// (planes == 0), a tolerance so tight the coefficients need more than 52
// planes, and a subnormal q. The PWE bound must hold on that branch too.
func TestPWELocateWithoutReplay(t *testing.T) {
	d := grid.D3(17, 23, 9)
	for _, tc := range []struct {
		name  string
		scale float64 // multiplies smoothField's ~150-amplitude field
		tol   float64
	}{
		{"dead zone", 1e-5, 1},
		{"over 52 planes", 1, 1e-13},
		{"subnormal q", 0x1p-1000, 0x1p-1030},
	} {
		data := smoothField(d, 5)
		for i := range data {
			data[i] *= tc.scale
		}
		s := NewScratch()
		stream, st, err := EncodeChunkScratch(data, d, Params{Mode: ModePWE, Tol: tc.tol}, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		meta, err := DescribeChunk(stream)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The SPECK scratch still holds the encode's replay state unless
		// the locate stage had to decode through it.
		if _, ok := speck.ReplayScratch(d, meta.Q, &s.speck); ok {
			t.Fatalf("%s: encode took the replay branch (planes=%d q=%g)", tc.name, meta.Planes, meta.Q)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if e := maxErr(data, rec); e > tc.tol*(1+1e-9) {
			t.Errorf("%s: max error %g exceeds tolerance %g (planes=%d outliers=%d)",
				tc.name, e, tc.tol, meta.Planes, st.NumOutliers)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := &header{
		mode: ModePWE, planes: 17, opasses: 4,
		q: 1.5e-7, tol: 1e-7, speckBits: 123456789, outlierBits: 987,
	}
	got, err := parseHeader(h.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("header round trip: %+v != %+v", got, h)
	}
}

func BenchmarkEncodePWE32(b *testing.B) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 1)
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePWE32(b *testing.B) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 1)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeChunk(stream, d); err != nil {
			b.Fatal(err)
		}
	}
}

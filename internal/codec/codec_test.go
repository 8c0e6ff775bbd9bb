package codec

import (
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/outlier"
	"sperr/internal/speck"
	"sperr/internal/synth"
)

// rawFrame re-wraps an encoded chunk behind the 0xFF raw marker: the form
// no encoder writes any more but every reader still opens. The header then
// sits at byte 1, and the frame's size is the coders' own output.
func rawFrame(tb testing.TB, stream []byte) []byte {
	tb.Helper()
	payload, err := lossless.Decompress(stream)
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte{0xFF}, payload...)
}

// RawFrame exports rawFrame to the external test package.
var RawFrame = rawFrame

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
		stream, st, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: bpp})
		if err != nil {
			t.Fatal(err)
		}
		stream = rawFrame(t, stream)
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

// Scratch.Outliers hands out the list the PWE encode coded: the stats
// count it, every entry misses the tolerance, positions ascend, and
// coding it again costs the encode's outlier bits.
func TestScratchOutliers(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 31)
	const tol = 0.05
	s := NewScratch()
	_, st, err := EncodeChunkScratch(data, d, Params{Mode: ModePWE, Tol: tol, QFactor: 2}, s)
	if err != nil {
		t.Fatal(err)
	}
	outs := s.Outliers()
	if len(outs) == 0 || len(outs) != st.NumOutliers {
		t.Fatalf("%d outliers listed, stats count %d", len(outs), st.NumOutliers)
	}
	for i, o := range outs {
		if !(math.Abs(o.Corr) > tol) || i > 0 && o.Pos <= outs[i-1].Pos {
			t.Fatalf("outlier %d: %+v", i, o)
		}
	}
	if bits := outlier.Encode(d.Len(), tol, outs).Bits; bits != st.OutlierBits {
		t.Fatalf("the list codes to %d bits, the encode to %d", bits, st.OutlierBits)
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

// TestPWELocateWithoutReplay covers the three inputs that once took a
// locate branch decoding the SPECK stream because the encode could not
// replay: a field wholly inside the dead zone (planes == 0), a tolerance so
// tight the coefficients would need more than 52 planes, and a subnormal
// q. That branch is gone: SPECK's one encoder writes the empty stream,
// clamps to 52 planes, and raises the subnormal step, and every PWE encode
// replays. Each row pins the step the header records and the PWE bound.
func TestPWELocateWithoutReplay(t *testing.T) {
	d := grid.D3(17, 23, 9)
	for _, tc := range []struct {
		name   string
		scale  float64 // multiplies smoothField's ~150-amplitude field
		tol    float64
		planes int // expected header plane count; -1 = any up to 52
		clamp  bool
	}{
		{"dead zone", 1e-5, 1, 0, false},
		{"over 52 planes", 1, 1e-13, 52, true},
		{"subnormal q", 0x1p-1000, 0x1p-1030, -1, true},
	} {
		data := smoothField(d, 5)
		for i := range data {
			data[i] *= tc.scale
		}
		s := NewScratch()
		p := Params{Mode: ModePWE, Tol: tc.tol}
		stream, st, err := EncodeChunkScratch(data, d, p, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		meta, err := DescribeChunk(stream)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.planes >= 0 && meta.Planes != tc.planes || meta.Planes > 52 {
			t.Fatalf("%s: %d planes, want %d", tc.name, meta.Planes, tc.planes)
		}
		if clamped := meta.Q != p.q(); clamped != tc.clamp || meta.Q < 0x1p-1022 {
			t.Fatalf("%s: header step %g for q %g", tc.name, meta.Q, p.q())
		}
		// The SPECK scratch still holds the encode's replay state at the
		// step the header records.
		if _, ok := speck.ReplayScratch(d, meta.Q, &s.speck); !ok {
			t.Fatalf("%s: the encode does not replay at its header step (planes=%d q=%g)", tc.name, meta.Planes, meta.Q)
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

// Params.Validate refuses every knob a reader would refuse: a non-finite
// Tol, TargetRMSE, BitsPerPoint or QFactor, and a PWE step q that
// overflows, as parseHeader refuses a non-finite step or tolerance. Each
// refused row once encoded a stream no Decompress could open (or, for
// BPP, one that decoded only by an accident of the float-to-int
// conversion). A negative QFactor once coded silently at the default 1.5.
func TestValidateRejectsNonFinite(t *testing.T) {
	inf, nan, huge := math.Inf(1), math.NaN(), math.MaxFloat64
	for _, tc := range []struct {
		name string
		p    Params
		ok   bool
	}{
		{"PWE Tol=+Inf", Params{Mode: ModePWE, Tol: inf}, false},
		{"PWE Tol=NaN", Params{Mode: ModePWE, Tol: nan}, false},
		{"PWE Tol=MaxFloat64 (q overflows)", Params{Mode: ModePWE, Tol: huge}, false},
		{"PWE QFactor overflows q", Params{Mode: ModePWE, Tol: 1e300, QFactor: 1e10}, false},
		{"PWE QFactor=+Inf", Params{Mode: ModePWE, Tol: 1, QFactor: inf}, false},
		{"PWE QFactor=NaN", Params{Mode: ModePWE, Tol: 1, QFactor: nan}, false},
		{"PWE QFactor=-3", Params{Mode: ModePWE, Tol: 1, QFactor: -3}, false},
		{"PWE QFactor=-Inf", Params{Mode: ModePWE, Tol: 1, QFactor: -inf}, false},
		{"adaptive QFactor=-1", Params{Mode: ModeAdaptive, Tol: 1, QFactor: -1}, false},
		{"BPP QFactor=-1", Params{Mode: ModeBPP, BitsPerPoint: 2, QFactor: -1}, false},
		{"PWE QFactor=0.1", Params{Mode: ModePWE, Tol: 1, QFactor: 0.1}, true},
		{"adaptive Tol=+Inf", Params{Mode: ModeAdaptive, Tol: inf}, false},
		{"adaptive Tol=MaxFloat64", Params{Mode: ModeAdaptive, Tol: huge}, false},
		{"RMSE TargetRMSE=+Inf", Params{Mode: ModeRMSE, TargetRMSE: inf}, false},
		{"RMSE TargetRMSE=NaN", Params{Mode: ModeRMSE, TargetRMSE: nan}, false},
		{"BPP BitsPerPoint=+Inf", Params{Mode: ModeBPP, BitsPerPoint: inf}, false},
		{"BPP BitsPerPoint=NaN", Params{Mode: ModeBPP, BitsPerPoint: nan}, false},
		{"sz Tol=+Inf", Params{Mode: ModePWE, Tol: inf, Codec: CodecSZ}, false},
		{"PWE Tol=MaxFloat64/2", Params{Mode: ModePWE, Tol: huge / 2}, true},
		{"RMSE TargetRMSE=MaxFloat64", Params{Mode: ModeRMSE, TargetRMSE: huge}, true},
		{"BPP BitsPerPoint=64", Params{Mode: ModeBPP, BitsPerPoint: 64}, true},
	} {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			if _, _, eerr := EncodeChunk(make([]float64, 8), grid.D3(2, 2, 2), tc.p); eerr == nil {
				t.Errorf("%s: Validate refuses but EncodeChunk succeeds", tc.name)
			}
		}
	}
}

// BenchmarkEncodeChunkMiranda is one chunk of the end-to-end benchmark's
// codec workloads on a warm arena: a 64^3 cut of the 128^3
// synth.MirandaPressure realization 1 those workloads compress, at the
// codec_tight and codec_loose tolerances (the full field's range times
// 1e-6 and 1e-2). Its SPECK share is what the codec_tight workload's
// write throughput follows.
func BenchmarkEncodeChunkMiranda(b *testing.B) {
	field := synth.MirandaPressure(grid.D3(128, 128, 128), 1)
	lo, hi := field.Range()
	d := grid.D3(64, 64, 64)
	data := field.Cutout(0, 0, 0, d).Data
	for _, tc := range []struct {
		name    string
		tolFrac float64
	}{{"tight", 1e-6}, {"loose", 1e-2}} {
		b.Run(tc.name, func(b *testing.B) {
			p := Params{Mode: ModePWE, Tol: (hi - lo) * tc.tolFrac}
			s := NewScratch()
			b.SetBytes(int64(d.Len() * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EncodeChunkScratch(data, d, p, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

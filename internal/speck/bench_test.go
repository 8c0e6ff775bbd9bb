package speck

import (
	"math"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/wavelet"
)

// benchCoeffs builds a realistic coefficient volume: a smooth synthetic
// field pushed through the forward CDF 9/7 transform, exactly what the
// chunk pipeline hands to the SPECK stage.
func benchCoeffs(n int) ([]float64, grid.Dims) {
	dims := grid.D3(n, n, n)
	data := make([]float64, dims.Len())
	i := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				data[i] = math.Sin(0.1*float64(x))*math.Cos(0.07*float64(y)) +
					0.5*math.Sin(0.05*float64(z)) +
					0.01*float64((x*31+y*17+z*7)%13)
				i++
			}
		}
	}
	wavelet.NewPlan(dims).Forward(data)
	return data, dims
}

// benchQ codes benchCoeffs(64) in 16 planes at 6.5 bit/pt; benchQTight in
// 26 planes at 16.5 bit/pt — the regime of the codec_tight workload
// (15 bit/pt), where refinement bits are most of the stream.
const (
	benchQ      = 1.5e-3
	benchQTight = 1.5e-6
)

// BenchmarkSpeckEncode measures quality-bounded SPECK coding of a 64^3
// coefficient volume — the chunk pipeline's stage 2 (paper Figure 6).
func BenchmarkSpeckEncode(b *testing.B)      { benchEncode(b, benchQ) }
func BenchmarkSpeckEncodeTight(b *testing.B) { benchEncode(b, benchQTight) }

func benchEncode(b *testing.B, q float64) {
	coeffs, dims := benchCoeffs(64)
	var s Scratch
	b.SetBytes(int64(len(coeffs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := EncodeScratch(coeffs, dims, q, 0, &s)
		if r.Bits == 0 {
			b.Fatal("no output bits")
		}
	}
}

// BenchmarkSpeckDecode is the decoder-side counterpart. MB/s is reported
// over the decoded sample bytes (dims.Len() float64s), the same
// denominator the encode benchmark uses for its input, so the rows are
// directly comparable.
func BenchmarkSpeckDecode(b *testing.B)      { benchDecode(b, benchQ) }
func BenchmarkSpeckDecodeTight(b *testing.B) { benchDecode(b, benchQTight) }

func benchDecode(b *testing.B, q float64) {
	coeffs, dims := benchCoeffs(64)
	res := Encode(coeffs, dims, q, 0)
	var s Scratch
	b.SetBytes(int64(len(coeffs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := DecodeScratch(res.Stream, res.Bits, dims, q, res.NumPlanes, &s)
		if len(out) != dims.Len() {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkSpeckReplay is the encoder's outlier-locate shortcut: the
// decoder's reconstruction synthesized from the last encode's pixel
// records (one table load per coefficient), at both regimes.
func BenchmarkSpeckReplay(b *testing.B) {
	coeffs, dims := benchCoeffs(64)
	for _, tc := range []struct {
		name string
		q    float64
	}{{"loose", benchQ}, {"tight", benchQTight}} {
		b.Run(tc.name, func(b *testing.B) {
			var s Scratch
			EncodeScratch(coeffs, dims, tc.q, 0, &s)
			b.SetBytes(int64(len(coeffs) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ReplayScratch(dims, tc.q, &s); !ok {
					b.Fatal("replay declined")
				}
			}
		})
	}
}

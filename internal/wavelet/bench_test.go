package wavelet

import (
	"fmt"
	"math"
	"testing"

	"sperr/internal/grid"
)

// benchField fills a deterministic smooth-plus-noise volume so transform
// benchmarks see realistic (non-constant) data.
func benchField(d grid.Dims) []float64 {
	data := make([]float64, d.Len())
	i := 0
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				data[i] = math.Sin(0.1*float64(x))*math.Cos(0.07*float64(y)) +
					0.5*math.Sin(0.05*float64(z)) +
					0.01*float64((x*31+y*17+z*7)%13)
				i++
			}
		}
	}
	return data
}

// benchCubes are the transform benchmarks' edge lengths: 64 is the
// pipeline's default chunk, 128 spills L2, and 100 (levels 100/50/25/13)
// keeps odd lengths and tile remainders from becoming a cliff.
var benchCubes = []int{64, 100, 128}

// BenchmarkWaveletForward3D measures the full multi-level forward CDF 9/7
// transform — the chunk pipeline's stage 1 (paper Figure 6).
func BenchmarkWaveletForward3D(b *testing.B) {
	for _, n := range benchCubes {
		b.Run(fmt.Sprintf("%dcube", n), func(b *testing.B) { benchForward(b, n) })
	}
}

// BenchmarkWaveletInverse3D is the synthesis-side counterpart, exercised
// by both the decoder and the encoder's outlier-locate stage.
func BenchmarkWaveletInverse3D(b *testing.B) {
	for _, n := range benchCubes {
		b.Run(fmt.Sprintf("%dcube", n), func(b *testing.B) { benchInverse(b, n) })
	}
}

// BenchmarkWaveletForward3DGoRows and BenchmarkWaveletInverse3DGoRows are
// the 64-cube rows with the vector lanes off: the portable Go rows' cost,
// on any host.
func BenchmarkWaveletForward3DGoRows(b *testing.B) {
	defer func(saved bool) { useLanes = saved }(useLanes)
	useLanes = false
	b.Run("64cube", func(b *testing.B) { benchForward(b, 64) })
}

func BenchmarkWaveletInverse3DGoRows(b *testing.B) {
	defer func(saved bool) { useLanes = saved }(useLanes)
	useLanes = false
	b.Run("64cube", func(b *testing.B) { benchInverse(b, 64) })
}

func benchForward(b *testing.B, n int) {
	dims := grid.D3(n, n, n)
	src := benchField(dims)
	data := make([]float64, len(src))
	plan := NewPlan(dims)
	var s Scratch
	b.SetBytes(int64(len(src) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, src)
		plan.ForwardScratch(data, &s)
	}
}

func benchInverse(b *testing.B, n int) {
	dims := grid.D3(n, n, n)
	src := benchField(dims)
	plan := NewPlan(dims)
	var s Scratch
	plan.ForwardScratch(src, &s)
	data := make([]float64, len(src))
	b.SetBytes(int64(len(src) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, src)
		plan.InverseScratch(data, &s)
	}
}

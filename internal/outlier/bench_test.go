package outlier

import (
	"math/rand"
	"slices"
	"testing"
)

// Production-density benchmarks: a 64^3 chunk with 10% and 2.5% of its
// points outliers — what the benchmark's codec_loose (tol = range*1e-2) and
// codec_tight (range*1e-6) workloads hand this stage per chunk — in
// ascending position order, as the codec's scan delivers them. Magnitudes
// reach 3 tol (two passes), as they do behind q = 1.5 tol.
// BENCH_KERNELS.json records these; the 1k-point benchmarks in
// outlier_test.go say nothing about this regime.

func prodOutliers(share float64) (int, []Outlier) {
	n := 64 * 64 * 64
	outs := genOutliers(rand.New(rand.NewSource(1)), n, int(float64(n)*share), 1.0, 3)
	slices.SortFunc(outs, byPos)
	return n, outs
}

var prodCases = []struct {
	name  string
	share float64
}{{"10pct", 0.10}, {"2.5pct", 0.025}}

func BenchmarkOutlierEncode(b *testing.B) {
	for _, c := range prodCases {
		b.Run(c.name, func(b *testing.B) {
			n, outs := prodOutliers(c.share)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EncodeScratch(n, 1.0, outs, &s)
			}
		})
	}
}

func BenchmarkOutlierDecode(b *testing.B) {
	for _, c := range prodCases {
		b.Run(c.name, func(b *testing.B) {
			n, outs := prodOutliers(c.share)
			res := Encode(n, 1.0, outs)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DecodeScratch(res.Stream, res.Bits, n, 1.0, res.NumPasses, &s)
			}
		})
	}
}

func BenchmarkOutlierApply(b *testing.B) {
	for _, c := range prodCases {
		b.Run(c.name, func(b *testing.B) {
			n, outs := prodOutliers(c.share)
			res := Encode(n, 1.0, outs)
			dst := make([]float64, n)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ApplyScratch(dst, res.Stream, res.Bits, 1.0, res.NumPasses, &s)
			}
		})
	}
}

package speck

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

// parTestField builds a mixed smooth+noise volume with a wide magnitude
// spread, so every plane carries real LIS and LSP populations.
func parTestField(dims grid.Dims, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, dims.Len())
	i := 0
	for z := 0; z < dims.NZ; z++ {
		for y := 0; y < dims.NY; y++ {
			for x := 0; x < dims.NX; x++ {
				v[i] = math.Sin(0.2*float64(x))*math.Cos(0.15*float64(y)+0.1*float64(z)) +
					0.03*rng.NormFloat64()
				i++
			}
		}
	}
	return v
}

// TestEncodeIdenticalAcrossWorkers is the determinism contract of the
// workers argument: the stream, its exact bit count, and the plane
// records (bit offsets and float error sums, compared bitwise) must be
// byte-for-byte identical at every worker count. The traversal is serial;
// what the extra workers split is quantize (whose float energy sum must
// keep its index order), octree.fillTops and the decoder's reconstruct,
// and the 32^3 and 40^3 cases are large enough to engage all three.
func TestEncodeIdenticalAcrossWorkers(t *testing.T) {
	cases := []struct {
		dims grid.Dims
		q    float64
	}{
		{grid.D3(32, 32, 32), 1e-4},
		{grid.D3(40, 40, 40), 1e-5},
		{grid.D3(24, 17, 9), 1e-3},
		{grid.D3(33, 31, 29), 1e-4},
	}
	for _, tc := range cases {
		var sb Scratch
		base := EncodeScratchWorkers(parTestField(tc.dims, 7), tc.dims, tc.q, 0, 1, &sb)
		baseErr2 := PlaneErr2Scratch(&sb)
		for _, workers := range []int{2, 3, 8} {
			var s Scratch
			coeffs := parTestField(tc.dims, 7)
			// Twice on the same scratch: a warmed arena must not change the
			// output either.
			for round := 0; round < 2; round++ {
				r := EncodeScratchWorkers(coeffs, tc.dims, tc.q, 0, workers, &s)
				if !bytes.Equal(r.Stream, base.Stream) {
					t.Fatalf("%v workers=%d round=%d: stream differs from serial (%d vs %d bytes)",
						tc.dims, workers, round, len(r.Stream), len(base.Stream))
				}
				if r.Bits != base.Bits || r.NumPlanes != base.NumPlanes {
					t.Fatalf("%v workers=%d: bits/planes (%d,%d) vs serial (%d,%d)",
						tc.dims, workers, r.Bits, r.NumPlanes, base.Bits, base.NumPlanes)
				}
				err2 := PlaneErr2Scratch(&s)
				if len(r.PlaneBits) != len(base.PlaneBits) || len(err2) != len(baseErr2) {
					t.Fatalf("%v workers=%d: %d plane records vs %d",
						tc.dims, workers, len(r.PlaneBits), len(base.PlaneBits))
				}
				for i := range r.PlaneBits {
					if r.PlaneBits[i] != base.PlaneBits[i] {
						t.Fatalf("%v workers=%d: PlaneBits[%d] %d vs %d",
							tc.dims, workers, i, r.PlaneBits[i], base.PlaneBits[i])
					}
					if math.Float64bits(err2[i]) != math.Float64bits(baseErr2[i]) {
						t.Fatalf("%v workers=%d: PlaneErr2[%d] %x vs %x",
							tc.dims, workers, i, err2[i], baseErr2[i])
					}
				}
			}
		}
		// Decoder-side worker counts must not change the reconstruction.
		ref := Decode(base.Stream, base.Bits, tc.dims, tc.q, base.NumPlanes)
		for _, workers := range []int{2, 8} {
			var s Scratch
			out := DecodeScratchWorkers(base.Stream, base.Bits, tc.dims, tc.q, base.NumPlanes, workers, &s)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%v decode workers=%d: out[%d]=%x, want %x",
						tc.dims, workers, i, out[i], ref[i])
				}
			}
		}
	}
}

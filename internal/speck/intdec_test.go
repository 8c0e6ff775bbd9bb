package speck

import (
	"math"
	"math/rand"
	"slices"
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

// TestFastDecodeMatchesGeneral sweeps truncation points — plane
// boundaries, their neighbors, mid-pass cuts, and the degenerate 0/1-bit
// prefixes — asserting the decoder reconstructs bit-identically to the
// per-bit oracle at every one. The small streams are cut at every bit
// 0..Bits, so some cut falls inside every sorting and refinement pass and
// between each significant leaf's 1-bit and its sign bit, which a per-bit
// read leaves undiscovered. Three rows are cut everywhere on streams of
// another kind: a size-bounded encode (the stream itself ends mid-plane),
// a 1-plane stream, and a 64-plane oracle stream, whose cut at bit 0
// leaves the floor at 64.
func TestFastDecodeMatchesGeneral(t *testing.T) {
	for _, tc := range []struct {
		dims    grid.Dims
		q       float64
		every   bool
		maxBits uint64 // > 0: a size-bounded encode
		planes  int    // > 0: sweepField with exactly this many planes
	}{
		{grid.D3(16, 16, 16), 1e-3, false, 0, 0},
		{grid.D3(24, 17, 9), 1e-4, false, 0, 0},
		{grid.D2(31, 13), 1e-3, false, 0, 0},
		{grid.D3(8, 8, 8), 1e-2, true, 0, 0},
		{grid.D3(8, 8, 8), 1e-3, true, 0, 0},
		{grid.D3(5, 3, 2), 1e-2, true, 0, 0},
		{grid.D3(5, 3, 2), 1e-3, true, 0, 0},
		{grid.D3(9, 8, 7), 1e-5, true, 3001, 0},
		{grid.D3(8, 8, 8), 1, true, 0, 1},
		{grid.D3(5, 4, 3), 1, true, 0, 64},
	} {
		coeffs := parTestField(tc.dims, 11)
		if tc.planes > 0 {
			coeffs = sweepField(tc.dims.Len(), tc.planes, tc.q, 3)
		}
		res := Encode(coeffs, tc.dims, tc.q, tc.maxBits)
		if tc.planes > maxPlanes {
			res, _ = encodeFloat(coeffs, tc.dims, tc.q, 0)
		}
		if tc.planes > 0 && res.NumPlanes != tc.planes {
			t.Fatalf("%v: %d planes, row wants %d", tc.dims, res.NumPlanes, tc.planes)
		}
		if tc.maxBits > 0 && (res.Bits != tc.maxBits || slices.Contains(res.PlaneBits, res.Bits)) {
			t.Fatalf("%v: size-bounded stream of %d bits does not end mid-plane", tc.dims, res.Bits)
		}
		cuts := map[uint64]bool{0: true, 1: true, res.Bits: true}
		for _, pb := range res.PlaneBits {
			for _, d := range []int64{-7, -1, 0, 1, 7} {
				c := int64(pb) + d
				if c >= 0 && uint64(c) <= res.Bits {
					cuts[uint64(c)] = true
				}
			}
		}
		for f := 1; f < 8; f++ {
			cuts[res.Bits*uint64(f)/8] = true
		}
		for c := uint64(0); tc.every && c <= res.Bits; c++ {
			cuts[c] = true
		}
		for cut := range cuts {
			got := Decode(res.Stream, cut, tc.dims, tc.q, res.NumPlanes)
			want := decodeOracle(res.Stream, cut, tc.dims, tc.q, res.NumPlanes)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v q=%g cut=%d of %d: out[%d]=%x, want %x", tc.dims, tc.q, cut, res.Bits, i, got[i], want[i])
				}
			}
		}
	}
}

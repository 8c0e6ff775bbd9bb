package speck

import (
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

// decodeGeneralRef runs the reference list-based decoder — the general
// path decode() falls back to — directly, bypassing decodeFast's
// dispatch, so the fast path has an in-package oracle at any truncation
// point.
func decodeGeneralRef(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int) []float64 {
	s := &Scratch{}
	s.r.Reset(stream, bitsAvail)
	d := &decoder{dims: dims, r: &s.r}
	d.lis = s.resetLIS()
	d.nd = 1
	d.lsp = s.lsp[:0]
	d.lspNew = s.lspNew[:0]
	out := make([]float64, dims.Len())
	if planes <= 0 {
		return out
	}
	d.run(q, planes)
	for _, p := range d.lsp {
		v := p.val
		if p.neg {
			v = -v
		}
		out[p.pos] = v
	}
	for _, p := range d.lspNew {
		v := p.val
		if p.neg {
			v = -v
		}
		out[p.pos] = v
	}
	return out
}

// TestFastDecodeMatchesGeneral sweeps truncation points — plane
// boundaries, their neighbors, mid-pass cuts, and the degenerate 0/1-bit
// prefixes — asserting the phase-separated fast decoder reconstructs
// bit-identically to the reference traversal at every one. The small
// streams are cut at every bit 0..Bits, so some cut falls between each
// significant leaf's 1-bit and its sign bit: there the fast decoder must
// decline exactly as a per-bit read would.
func TestFastDecodeMatchesGeneral(t *testing.T) {
	for _, tc := range []struct {
		dims  grid.Dims
		q     float64
		every bool
	}{
		{grid.D3(16, 16, 16), 1e-3, false},
		{grid.D3(24, 17, 9), 1e-4, false},
		{grid.D2(31, 13), 1e-3, false},
		{grid.D3(8, 8, 8), 1e-2, true},
		{grid.D3(8, 8, 8), 1e-3, true},
		{grid.D3(5, 3, 2), 1e-2, true},
		{grid.D3(5, 3, 2), 1e-3, true},
	} {
		coeffs := parTestField(tc.dims, 11)
		res := Encode(coeffs, tc.dims, tc.q, 0)
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
			want := decodeGeneralRef(res.Stream, cut, tc.dims, tc.q, res.NumPlanes)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v q=%g cut=%d of %d: out[%d]=%x, want %x", tc.dims, tc.q, cut, res.Bits, i, got[i], want[i])
				}
			}
		}
	}
}

package speck

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

// Tests of the stream-resident refinement layout: the decoder's
// block-transposed reconstruct, ReplayScratch and the oracle decoder
// must agree bit for bit wherever more than one of them applies.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: out[%d]=%x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// sweepField has log-uniform magnitudes between q/4 and q*2^planes, so
// every plane discovers pixels and the first discoveries are refined on
// every plane below; one coefficient pins NumPlanes to exactly planes.
func sweepField(n, planes int, q float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	limit := q * math.Pow(2, float64(planes))
	for i := range v {
		m := q / 4 * math.Pow(2, rng.Float64()*float64(planes+2)) * (1 + rng.Float64())
		if m >= limit {
			m = limit / 2
		}
		if rng.Intn(2) == 0 {
			m = -m
		}
		v[i] = m
	}
	v[n/2] = -1.5 * q * math.Pow(2, float64(planes-1))
	return v
}

// TestReconstructPlaneCounts: decode == oracle == replay at every plane
// count that changes which lanes reconstruct uses (byte lanes for planes
// 0-7 and 8-15, the per-bit path from 16 up, the encoder's last row at 52,
// the decoder's last row at 64, which only the float oracle writes now
// that Encode clamps), at the full stream, at every plane
// boundary (floor > 0) and at its +-1/+-7 neighbours, which cut a pass
// short and leave finishPlane a partial plane.
func TestReconstructPlaneCounts(t *testing.T) {
	dims := grid.D3(12, 11, 9)
	const q = 1.0
	for _, planes := range []int{1, 2, 7, 8, 9, 15, 16, 17, 33, 52, 64} {
		coeffs := sweepField(dims.Len(), planes, q, int64(planes))
		var s Scratch
		res := EncodeScratch(coeffs, dims, q, 0, &s)
		if planes > maxPlanes {
			// Encode codes this field at a coarser step; the decoders
			// still read streams written before the clamp.
			res, _ = encodeFloat(coeffs, dims, q, 0)
		}
		if res.NumPlanes != planes {
			t.Fatalf("planes=%d: field encodes %d planes", planes, res.NumPlanes)
		}
		stream := append([]byte(nil), res.Stream...)
		bounds := append([]uint64(nil), res.PlaneBits...)
		full := decodeOracle(stream, res.Bits, dims, q, planes)
		replay, ok := ReplayScratch(dims, q, &s)
		if ok != (planes <= 52) {
			t.Fatalf("planes=%d: replay ok=%v", planes, ok)
		}
		if ok {
			sameBits(t, fmt.Sprintf("planes=%d replay", planes), replay, full)
		}
		for pi, pb := range bounds {
			var sd Scratch
			for _, d := range []int64{-7, -1, 0, 1, 7} {
				cut := uint64(int64(pb) + d)
				if int64(pb)+d < 0 || cut > res.Bits {
					continue
				}
				got := DecodeScratch(stream, cut, dims, q, planes, &sd)
				want := decodeOracle(stream, cut, dims, q, planes)
				sameBits(t, fmt.Sprintf("planes=%d cut=%d (boundary %d%+d)", planes, cut, pi, d), got, want)
			}
		}
	}
}

// TestReconstructListSizes pins the block edges: discovery lists of 1,
// 63, 64, 65 and 64k+-1 pixels, full and cut at a plane boundary.
func TestReconstructListSizes(t *testing.T) {
	dims := grid.D3(48, 40, 36)
	const q, planes = 1e-3, 17
	for _, npix := range []int{1, 63, 64, 65, 1<<16 - 1, 1 << 16, 1<<16 + 1} {
		rng := rand.New(rand.NewSource(int64(npix)))
		coeffs := make([]float64, dims.Len())
		for _, pos := range rng.Perm(dims.Len())[:npix] {
			coeffs[pos] = q * math.Pow(2, rng.Float64()*planes) * float64(1-2*rng.Intn(2))
		}
		var s Scratch
		res := EncodeScratch(coeffs, dims, q, 0, &s)
		stream := append([]byte(nil), res.Stream...)
		cuts := []uint64{res.Bits, res.PlaneBits[len(res.PlaneBits)/2]}
		replay, ok := ReplayScratch(dims, q, &s)
		if !ok {
			t.Fatalf("npix=%d: replay declined", npix)
		}
		sig := 0
		for _, v := range replay {
			if v != 0 {
				sig++
			}
		}
		if sig != npix {
			t.Fatalf("npix=%d: %d significant pixels", npix, sig)
		}
		for ci, cut := range cuts {
			want := decodeOracle(stream, cut, dims, q, res.NumPlanes)
			if ci == 0 {
				sameBits(t, fmt.Sprintf("npix=%d replay", npix), replay, want)
			}
			got := decodeFast(stream, cut, dims, q, res.NumPlanes, &Scratch{})
			sameBits(t, fmt.Sprintf("npix=%d cut=%d", npix, cut), got, want)
		}
	}
}

// TestReconstructStreamTail drives the last refinement load against the
// end of the buffer. A stream ends with plane 0's refinement pass; by
// varying how many pixels plane 0 itself discovers (sorting bits only)
// the pass is slid across byte alignments until one variant's final load
// is a whole word ending in the buffer's last byte, and another's 8-byte
// window would cross the end (the bytewise tail of rawCursor.load).
func TestReconstructStreamTail(t *testing.T) {
	dims := grid.D3(16, 16, 8)
	const q = 1.0
	var flush, cross bool
	for extra := 0; extra < 64 && !(flush && cross); extra++ {
		for _, refined := range []int{128, 100} {
			coeffs := make([]float64, dims.Len())
			rng := rand.New(rand.NewSource(int64(refined)))
			perm := rng.Perm(dims.Len())
			for _, pos := range perm[:refined] {
				coeffs[pos] = 2 + 29*rng.Float64() // discovered above plane 0
			}
			for _, pos := range perm[refined : refined+extra] {
				coeffs[pos] = -1.5 // discovered on plane 0: never refined
			}
			res := Encode(coeffs, dims, q, 0)
			last := (refined - 1) / 64 * 64
			pos := res.Bits - uint64(refined) + uint64(last)
			switch {
			case pos>>3+8 == uint64(len(res.Stream)) && pos&7 == 0 && refined-last == 64:
				flush = true
			case pos>>3+8 > uint64(len(res.Stream)):
				cross = true
			default:
				continue
			}
			got := decodeFast(res.Stream, res.Bits, dims, q, res.NumPlanes, &Scratch{})
			sameBits(t, fmt.Sprintf("extra=%d refined=%d", extra, refined), got,
				decodeOracle(res.Stream, res.Bits, dims, q, res.NumPlanes))
		}
	}
	if !flush || !cross {
		t.Fatalf("sweep missed a tail case: word flush with the end %v, load crossing the end %v", flush, cross)
	}
}

// TestRawCursorLoad checks load against a per-bit reader at every bit
// offset 0..71 and length 0..64, at the start, in the middle and flush
// against the end of a buffer.
func TestRawCursorLoad(t *testing.T) {
	buf := make([]byte, 37)
	rand.New(rand.NewSource(1)).Read(buf)
	c := rawCursor{buf: buf}
	end := uint64(len(buf)) * 8
	for off := uint64(0); off <= 71; off++ {
		for nb := uint(0); nb <= 64; nb++ {
			for _, pos := range []uint64{off, 13*8 + off, end - uint64(nb) - off} {
				var want uint64
				for k := uint(0); k < nb; k++ {
					p := pos + uint64(k)
					want |= uint64(buf[p>>3]>>(p&7)&1) << k
				}
				if got := c.load(pos, nb); got != want {
					t.Fatalf("load(%d, %d) = %#x, want %#x", pos, nb, got, want)
				}
			}
		}
	}
	if c.pos != 0 {
		t.Fatalf("load moved the cursor to %d", c.pos)
	}
}

// TestScratchSteadyStateMixed: one warmed scratch serves alternating
// encode / plane-record / replay / decode / truncated decode calls on two
// shapes at two quantization steps without growing, and every result
// equals a fresh scratch's — in particular the cached reconstruction table
// is rebuilt on each change of q or floor (decode at q1, replay at q2,
// decode at q1 cut to floor 3 would each read the previous call's table
// otherwise), and the magnitudes and tree of one shape never leak into the
// other's plane record or replay. A plane record asked for with the other
// shape's coefficients is refused.
func TestScratchSteadyStateMixed(t *testing.T) {
	type ref struct {
		dims        grid.Dims
		coeffs      []float64
		q           float64
		stream      []byte
		bits, cut   uint64
		planes      int
		full, trunc []float64
		err2        []float64
	}
	var refs []*ref
	for _, c := range []struct {
		dims grid.Dims
		q    float64
	}{{grid.D3(24, 17, 9), 1e-4}, {grid.D3(13, 20, 11), 3e-3}} {
		r := &ref{dims: c.dims, coeffs: parTestField(c.dims, 5), q: c.q}
		var s Scratch
		res := EncodeScratch(r.coeffs, r.dims, r.q, 0, &s)
		r.stream, r.bits, r.planes = append([]byte(nil), res.Stream...), res.Bits, res.NumPlanes
		r.cut = res.PlaneBits[res.NumPlanes-4] // planes 0-2 dropped: floor = 3
		r.err2 = append([]float64(nil), PlaneErr2Scratch(r.coeffs, &s)...)
		r.full = decodeOracle(r.stream, r.bits, r.dims, r.q, r.planes)
		r.trunc = decodeOracle(r.stream, r.cut, r.dims, r.q, r.planes)
		refs = append(refs, r)
	}
	var s Scratch
	grows := 0
	for round := 0; round < 4; round++ {
		for ri, r := range refs {
			other := refs[1-ri]
			what := fmt.Sprintf("round %d %v q=%g", round, r.dims, r.q)
			sameBits(t, what+" decode", DecodeScratch(r.stream, r.bits, r.dims, r.q, r.planes, &s), r.full)
			EncodeScratch(other.coeffs, other.dims, other.q, 0, &s)
			if got := PlaneErr2Scratch(r.coeffs, &s); got != nil {
				t.Fatalf("%s: plane record for %d coefficients after a %d-coefficient encode", what, len(r.coeffs), len(other.coeffs))
			}
			sameBits(t, what+" plane record", PlaneErr2Scratch(other.coeffs, &s), other.err2)
			if _, ok := ReplayScratch(r.dims, other.q, &s); ok {
				t.Fatalf("%s: replay accepted the other shape", what)
			}
			replay, ok := ReplayScratch(other.dims, other.q, &s)
			if !ok {
				t.Fatalf("%s: replay declined", what)
			}
			sameBits(t, what+" replay of the other shape", replay, other.full)
			sameBits(t, what+" truncated decode", DecodeScratch(r.stream, r.cut, r.dims, r.q, r.planes, &s), r.trunc)
			if res := EncodeScratch(r.coeffs, r.dims, r.q, 0, &s); !bytes.Equal(res.Stream, r.stream) {
				t.Fatalf("%s: stream differs on the warmed scratch", what)
			}
		}
		if round == 1 {
			grows = s.Grows
		}
	}
	if s.Grows != grows {
		t.Fatalf("warmed scratch grew: Grows %d -> %d", grows, s.Grows)
	}
}

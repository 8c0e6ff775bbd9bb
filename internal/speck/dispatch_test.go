package speck

import (
	"bytes"
	"math"
	"testing"

	"sperr/internal/grid"
)

// TestDispatchBoundaries drives the public Encode/Decode pair across every
// edge of the path dispatch (DESIGN.md 4h, "SPECK paths: which one runs
// when"). The integer encoder needs 1 <= planes <= 52 and a normal q; the
// fast decoder needs 1 <= planes <= 64; everything else must still reach
// the float encoder and the general decoder. Each row pins (a) which
// encoder ran — ReplayScratch accepts exactly the integer path's encodes,
// (b) that an eligible row's stream is the float oracle's byte for byte,
// (c) that Decode equals the reference list decoder bitwise, and (d) the
// dead-zone / mid-riser error bound. Dropping either fallback, or widening
// either eligibility test, fails a row here.
func TestDispatchBoundaries(t *testing.T) {
	dims := grid.D3(9, 8, 7)
	for _, tc := range []struct {
		name    string
		q       float64
		scale   float64 // background coefficients lie in (-2*scale, 2*scale)
		peak    float64 // one coefficient forced to this magnitude; 0 = none
		planes  int     // expected NumPlanes; -1 = whatever the field gives
		wantInt bool
	}{
		{"planes=0 (all in dead zone)", 1, 0.2, 0, 0, false},
		{"planes=1", 1, 0.2, 1.5, 1, true},
		{"planes=52", 1, 1e3, 0x1.fffffffffffffp51, 52, true},
		{"planes=53", 1, 1e3, 0x1p52, 53, false},
		{"planes=67 (beyond the fast decoder)", 1e-10, 1e3, 1e10, 67, false},
		{"q=smallest normal", 0x1p-1022, 0x1p-1002, 0, -1, true},
		{"q subnormal", 0x1p-1030, 0x1p-1010, 0, -1, false},
	} {
		coeffs := intTestField(dims.Len(), 0xD15BA7C4, tc.scale)
		if tc.peak != 0 {
			coeffs[dims.Len()/3] = -tc.peak
		}
		var maxMag float64
		for _, c := range coeffs {
			maxMag = math.Max(maxMag, math.Abs(c))
		}

		var s Scratch
		res := EncodeScratch(coeffs, dims, tc.q, 0, &s)
		planes := res.NumPlanes
		if tc.planes >= 0 && planes != tc.planes {
			t.Fatalf("%s: NumPlanes = %d, row expects %d", tc.name, planes, tc.planes)
		}
		if tc.planes < 0 && (planes < 2 || planes > 52) {
			t.Fatalf("%s: NumPlanes = %d, row wants q alone to decide", tc.name, planes)
		}
		stream := append([]byte(nil), res.Stream...)
		nbits := res.Bits
		replay, ok := ReplayScratch(dims, tc.q, &s)
		if ok != tc.wantInt {
			t.Fatalf("%s: ReplayScratch ok=%v, want %v (wrong encoder ran)", tc.name, ok, tc.wantInt)
		}

		ref := encodeFloat(coeffs, dims, tc.q, 0, maxMag, planes, &Scratch{})
		if nbits != ref.Bits || !bytes.Equal(stream, ref.Stream) {
			t.Fatalf("%s: stream differs from the float oracle (%d vs %d bits)", tc.name, nbits, ref.Bits)
		}

		got := Decode(stream, nbits, dims, tc.q, planes)
		want := decodeGeneralRef(stream, nbits, dims, tc.q, planes)
		for i, c := range coeffs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: Decode[%d]=%x, reference decoder %x", tc.name, i, got[i], want[i])
			}
			if ok && math.Float64bits(replay[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: replay[%d]=%x, Decode %x", tc.name, i, replay[i], got[i])
			}
			if math.Abs(c) < tc.q {
				if got[i] != 0 {
					t.Fatalf("%s: dead-zone coefficient %d decoded to %g", tc.name, i, got[i])
				}
				continue
			}
			// Mid-riser bound q/2, plus rounding: q*(u+0.5) is not exactly
			// representable in general (never, once u needs 53 bits).
			m := math.Abs(c)
			bound := tc.q/2 + 4*(math.Nextafter(m, math.Inf(1))-m)
			if e := math.Abs(got[i] - c); e > bound {
				t.Fatalf("%s: coefficient %d error %g > %g", tc.name, i, e, bound)
			}
		}
	}
}

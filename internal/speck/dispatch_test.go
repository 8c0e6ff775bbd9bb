package speck

import (
	"bytes"
	"math"
	"testing"

	"sperr/internal/grid"
)

// TestDispatchBoundaries drives the public Encode/Decode pair across every
// edge of the encoder's resolution clamp and the decoder dispatch (DESIGN.md
// 4h, "SPECK paths: which one runs when"). The one encoder codes 1..52
// planes at a normal step, writes an empty stream for planes = 0, and
// raises any other step: a subnormal q to the smallest normal, a q needing
// more than 52 planes by the power of two that leaves 52. The fast decoder
// needs 1 <= planes <= 64; everything else reaches the general decoder.
// Each row pins (a) the step and plane count the encoder reports, (b) that
// every untruncated encode replays, (c) that the stream is the float
// oracle's byte for byte at the reported step, (d) that Decode equals the
// reference list decoder bitwise, and (e) the dead-zone / mid-riser error
// bound at the reported step. Rows the clamp moved also decode the
// oracle's unclamped stream, which the general decoder must still read:
// streams of more than 52 and more than 64 planes were written before the
// clamp. Dropping the clamp, or widening the fast decoder's range, fails a
// row here.
func TestDispatchBoundaries(t *testing.T) {
	dims := grid.D3(9, 8, 7)
	for _, tc := range []struct {
		name   string
		q      float64
		scale  float64 // background coefficients lie in (-2*scale, 2*scale)
		peak   float64 // one coefficient forced to this magnitude; 0 = none
		planes int     // expected NumPlanes at q; -1 = whatever the field gives
		wantQ  float64 // the step the encoder must report
	}{
		{"planes=0 (all in dead zone)", 1, 0.2, 0, 0, 1},
		{"planes=1", 1, 0.2, 1.5, 1, 1},
		{"planes=52", 1, 1e3, 0x1.fffffffffffffp51, 52, 1},
		{"planes=53 (clamped to 52)", 1, 1e3, 0x1p52, 53, 2},
		{"planes=67 (clamped to 52)", 1e-10, 1e3, 1e10, 67, 1e-10 * 0x1p15},
		{"q=smallest normal", 0x1p-1022, 0x1p-1002, 0, -1, 0x1p-1022},
		{"q subnormal (raised to the smallest normal)", 0x1p-1030, 0x1p-1010, 0, -1, 0x1p-1022},
	} {
		coeffs := intTestField(dims.Len(), 0xD15BA7C4, tc.scale)
		if tc.peak != 0 {
			coeffs[dims.Len()/3] = -tc.peak
		}
		var maxMag float64
		for _, c := range coeffs {
			maxMag = math.Max(maxMag, math.Abs(c))
		}
		asked := NumPlanes(maxMag, tc.q)
		if tc.planes >= 0 && asked != tc.planes {
			t.Fatalf("%s: NumPlanes = %d, row expects %d", tc.name, asked, tc.planes)
		}
		if tc.planes < 0 && tc.q == tc.wantQ && (asked < 2 || asked > maxPlanes) {
			t.Fatalf("%s: NumPlanes = %d, row wants q alone to decide", tc.name, asked)
		}

		var s Scratch
		res := EncodeScratch(coeffs, dims, tc.q, 0, &s)
		q, planes := res.Q, res.NumPlanes
		if q != tc.wantQ || planes != NumPlanes(maxMag, q) || planes > maxPlanes {
			t.Fatalf("%s: coded %d planes at step %g, want step %g", tc.name, planes, q, tc.wantQ)
		}
		stream := append([]byte(nil), res.Stream...)
		nbits := res.Bits
		replay, ok := ReplayScratch(dims, q, &s)
		if !ok {
			t.Fatalf("%s: ReplayScratch refused an untruncated encode", tc.name)
		}

		ref, _ := encodeFloat(coeffs, dims, q, 0)
		if nbits != ref.Bits || !bytes.Equal(stream, ref.Stream) {
			t.Fatalf("%s: stream differs from the float oracle at step %g (%d vs %d bits)", tc.name, q, nbits, ref.Bits)
		}
		checkDecode(t, tc.name, coeffs, dims, stream, nbits, q, planes, replay)

		if q != tc.q {
			// The oracle's unclamped stream: more planes than the encoder
			// writes, at the subnormal or fine step it was asked for.
			unc, _ := encodeFloat(coeffs, dims, tc.q, 0)
			if unc.NumPlanes != asked {
				t.Fatalf("%s: oracle coded %d planes, want %d", tc.name, unc.NumPlanes, asked)
			}
			checkDecode(t, tc.name+" (unclamped oracle stream)", coeffs, dims, unc.Stream, unc.Bits, tc.q, asked, nil)
		}
	}
}

// checkDecode asserts that Decode equals the reference decoder bitwise,
// that replay (if given) equals Decode, and the dead-zone / mid-riser
// error bound at step q.
func checkDecode(t *testing.T, name string, coeffs []float64, dims grid.Dims, stream []byte, nbits uint64, q float64, planes int, replay []float64) {
	t.Helper()
	got := Decode(stream, nbits, dims, q, planes)
	want := decodeGeneralRef(stream, nbits, dims, q, planes)
	for i, c := range coeffs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: Decode[%d]=%x, reference decoder %x", name, i, got[i], want[i])
		}
		if replay != nil && math.Float64bits(replay[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: replay[%d]=%x, Decode %x", name, i, replay[i], got[i])
		}
		if math.Abs(c) < q {
			if got[i] != 0 {
				t.Fatalf("%s: dead-zone coefficient %d decoded to %g", name, i, got[i])
			}
			continue
		}
		// Mid-riser bound q/2, plus rounding: q*(u+0.5) is not exactly
		// representable in general (never, once u needs 53 bits).
		m := math.Abs(c)
		bound := q/2 + 4*(math.Nextafter(m, math.Inf(1))-m)
		if e := math.Abs(got[i] - c); e > bound {
			t.Fatalf("%s: coefficient %d error %g > %g", name, i, e, bound)
		}
	}
}

// Coefficients a transform overflowed (Inf, or NaN from Inf - Inf) leave
// the encoder nothing it can code: the stream is empty, and it decodes and
// replays to zeros, so the codec's outlier stage carries every sample.
func TestEncodeNonFiniteCoefficients(t *testing.T) {
	dims := grid.D3(5, 4, 3)
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		coeffs := intTestField(dims.Len(), 7, 1)
		coeffs[11] = bad
		var s Scratch
		res := EncodeScratch(coeffs, dims, 1e-3, 0, &s)
		if res.NumPlanes != 0 || res.Bits != 0 || len(res.Stream) != 0 {
			t.Fatalf("%g: %d planes, %d bits", bad, res.NumPlanes, res.Bits)
		}
		replay, ok := ReplayScratch(dims, res.Q, &s)
		if !ok {
			t.Fatalf("%g: replay refused", bad)
		}
		got := Decode(res.Stream, res.Bits, dims, res.Q, res.NumPlanes)
		for i := range got {
			if got[i] != 0 || replay[i] != 0 {
				t.Fatalf("%g: sample %d decodes to %g, replays to %g", bad, i, got[i], replay[i])
			}
		}
	}
}

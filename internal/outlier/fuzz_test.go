package outlier

import (
	"math"
	"testing"
)

// FuzzOutlierDecode feeds the decoder bytes, a bit budget, an array length
// and a pass count that no encoder vouches for — what a chunk header that
// slipped past the frame CRC could carry. Whatever comes out must be a
// legal correction list: positions unique, ascending and inside [0, n),
// scratch buffers bounded by n, and the very list the bit-at-a-time oracle
// decodes. ApplyScratch, the codec's entry point, must agree with the list.
func FuzzOutlierDecode(f *testing.F) {
	valid := Encode(500, 0.5, []Outlier{{3, 1.7}, {77, -9}, {78, 0.6}, {499, 40}})
	f.Add(valid.Stream, valid.Bits, uint32(500), 0.5, uint16(valid.NumPasses))
	f.Add(valid.Stream, valid.Bits/2, uint32(500), 0.5, uint16(valid.NumPasses)) // truncated
	f.Add(valid.Stream, valid.Bits, uint32(7), 0.5, uint16(200))                 // wrong n, too many passes
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint64(72), uint32(64), 1.0, uint16(3))
	f.Add([]byte{0x00, 0x00, 0x00}, uint64(24), uint32(1<<20), 1.0, uint16(255))
	f.Add([]byte{0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA}, uint64(1<<40), uint32(301), 1e-300, uint16(2000))
	f.Add([]byte{}, uint64(0), uint32(0), 0.0, uint16(1))
	f.Fuzz(func(t *testing.T, stream []byte, nbits uint64, n32 uint32, tol float64, passes16 uint16) {
		// Up to 1M points; up to more passes than float64 has binades.
		n, passes := int(n32%(1<<20)), int(passes16%2200)
		var s Scratch
		got := DecodeScratch(stream, nbits, n, tol, passes, &s)
		for i, o := range got {
			if o.Pos < 0 || o.Pos >= n || (i > 0 && o.Pos <= got[i-1].Pos) {
				t.Fatalf("point %d of %d at position %d, n = %d", i, len(got), o.Pos, n)
			}
		}
		// LIS ranges are disjoint, non-empty pieces of [0, n) and no point
		// is found twice, so nothing the decode holds outgrows n by more
		// than append's doubling.
		held := cap(s.pts) + cap(s.mag) + cap(s.out) + cap(s.seen) + cap(s.below)
		for d := range s.dlis {
			held += cap(s.dlis[d])
		}
		if limit := 24 * (n + 64); held > limit {
			t.Fatalf("scratch holds %d elements for n = %d", held, n)
		}
		// (The oracle recurses once per bit on an empty array.)
		if n > 0 {
			if want := oracleDecode(stream, nbits, n, tol, passes); !sameList(got, want) {
				t.Fatalf("decoded %d points, the oracle %d (or values differ)", len(got), len(want))
			}
		}
		dst := make([]float64, n)
		if applied := ApplyScratch(dst, stream, nbits, tol, passes, &s); applied != len(got) {
			t.Fatalf("applied %d corrections, the list has %d", applied, len(got))
		}
		for _, o := range got {
			if want := 0 + o.Corr; math.Float64bits(dst[o.Pos]) != math.Float64bits(want) {
				t.Fatalf("position %d holds %v, the list says %v", o.Pos, dst[o.Pos], o.Corr)
			}
		}
	})
}

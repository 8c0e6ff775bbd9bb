package codec

import (
	"bytes"
	"math"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/synth"
)

// The arena is an optimization, not a format change: the pooled path must
// emit byte-identical streams and decode to identical values, including
// when one warm arena serves a sequence of differently shaped chunks.
func TestScratchPathMatchesFreshPath(t *testing.T) {
	shapes := []grid.Dims{
		grid.D3(17, 33, 5),
		grid.D3(16, 16, 16),
		grid.D3(1, 64, 1),
		grid.D3(7, 7, 7),
		grid.D3(17, 33, 5), // repeat: the cached plan must be re-validated
		grid.D2(31, 17),
	}
	s := NewScratch()
	for si, d := range shapes {
		data := smoothField(d, int64(si+1))
		for _, p := range []Params{
			{Mode: ModePWE, Tol: 1e-3},
			{Mode: ModePWE, Tol: 0.5, QFactor: 2.0},
			{Mode: ModeBPP, BitsPerPoint: 2},
			{Mode: ModeRMSE, TargetRMSE: 0.05},
		} {
			fresh, fst, err := EncodeChunk(data, d, p)
			if err != nil {
				t.Fatalf("%v %+v: fresh: %v", d, p, err)
			}
			pooled, pst, err := EncodeChunkScratch(data, d, p, s)
			if err != nil {
				t.Fatalf("%v %+v: pooled: %v", d, p, err)
			}
			if !bytes.Equal(fresh, pooled) {
				t.Fatalf("%v %+v: pooled stream differs from fresh (%d vs %d bytes)",
					d, p, len(pooled), len(fresh))
			}
			if fst.SpeckBits != pst.SpeckBits || fst.OutlierBits != pst.OutlierBits ||
				fst.NumOutliers != pst.NumOutliers {
				t.Fatalf("%v %+v: pooled stats differ: %+v vs %+v", d, p, pst, fst)
			}

			freshRec, err := DecodeChunk(fresh, d)
			if err != nil {
				t.Fatalf("%v %+v: fresh decode: %v", d, p, err)
			}
			pooledRec, err := DecodeChunkScratch(pooled, d, s)
			if err != nil {
				t.Fatalf("%v %+v: pooled decode: %v", d, p, err)
			}
			for i := range freshRec {
				if freshRec[i] != pooledRec[i] {
					t.Fatalf("%v %+v: decode differs at %d: %g vs %g",
						d, p, i, freshRec[i], pooledRec[i])
				}
			}
		}
	}
}

// A warm arena must stop growing: after one chunk of a given shape, the
// Grows counter stays flat for identical follow-up chunks.
func TestScratchWarmsUp(t *testing.T) {
	d := grid.D3(24, 24, 24)
	p := Params{Mode: ModePWE, Tol: 1e-3}
	s := NewScratch()
	for warm := 0; warm < 2; warm++ {
		if _, _, err := EncodeChunkScratch(smoothField(d, int64(warm)), d, p, s); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Grows()
	for i := 0; i < 5; i++ {
		if _, _, err := EncodeChunkScratch(smoothField(d, int64(10+i)), d, p, s); err != nil {
			t.Fatal(err)
		}
	}
	if g := s.Grows(); g != base {
		t.Errorf("warm arena grew: %d -> %d over 5 identical chunks", base, g)
	}
}

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random, so the pooled DEFLATE coders reallocate and allocation
// counts stop being exact.
var raceEnabled bool

// A warm arena's per-chunk allocations, pinned on the benchmark volume
// (its payloads are stored, not deflated, so no DEFLATE state is counted).
// A rise means a per-chunk allocation crept into a stage; a drop means the
// pin can come down.
func TestScratchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	d := grid.D3(64, 64, 64)
	data := synth.MirandaVelocityX(d, 1).Data
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo, hi = min(lo, v), max(hi, v)
	}
	for _, rel := range []float64{1e-2, 1e-6} {
		p := Params{Mode: ModePWE, Tol: (hi - lo) * rel}
		s := NewScratch()
		var stream []byte
		for warm := 0; warm < 2; warm++ {
			var err error
			if stream, _, err = EncodeChunkScratch(data, d, p, s); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeChunkScratch(stream, d, s); err != nil {
				t.Fatal(err)
			}
		}
		enc := testing.AllocsPerRun(5, func() { _, _, _ = EncodeChunkScratch(data, d, p, s) })
		dec := testing.AllocsPerRun(5, func() { _, _ = DecodeChunkScratch(stream, d, s) })
		if enc != 7 || dec != 1 {
			t.Errorf("tol = range*%g: %v allocs per encode, %v per decode; want 7 and 1", rel, enc, dec)
		}
	}
}

// The PWE contract must survive the pooled path on the shapes where index
// arithmetic is most fragile.
func TestScratchPWEContractOddDims(t *testing.T) {
	s := NewScratch()
	for _, d := range []grid.Dims{
		grid.D3(17, 33, 5), grid.D3(1, 37, 1), grid.D3(3, 5, 7), grid.D2(19, 1),
	} {
		data := smoothField(d, int64(d.Len()))
		for _, tol := range []float64{1e-1, 1e-4} {
			stream, _, err := EncodeChunkScratch(data, d, Params{Mode: ModePWE, Tol: tol}, s)
			if err != nil {
				t.Fatalf("%v tol=%g: %v", d, tol, err)
			}
			rec, err := DecodeChunkScratch(stream, d, s)
			if err != nil {
				t.Fatalf("%v tol=%g: decode: %v", d, tol, err)
			}
			for i := range data {
				if e := math.Abs(rec[i] - data[i]); e > tol*(1+1e-9) {
					t.Fatalf("%v tol=%g: error %g at %d", d, tol, e, i)
				}
			}
		}
	}
}

package codec

import (
	"math"
	"testing"

	"sperr/internal/grid"
	"sperr/internal/metrics"
)

func TestDecodeChunkPartialProgressive(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 101)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, frac := range []float64{0.05, 0.2, 0.5, 1.0} {
		rec, err := DecodeChunkPartial(stream, d, frac, nil)
		if err != nil {
			t.Fatalf("frac=%g: %v", frac, err)
		}
		rmse := metrics.RMSE(data, rec)
		if rmse > prev*1.02 {
			t.Errorf("frac=%g: rmse %g worse than smaller prefix %g", frac, rmse, prev)
		}
		prev = rmse
	}
	// Full fraction must equal the regular decode (including outliers).
	full, err := DecodeChunkPartial(stream, d, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := DecodeChunk(stream, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if full[i] != reg[i] {
			t.Fatalf("fraction=1 differs from DecodeChunk at %d", i)
		}
	}
}

func TestDecodeChunkPartialValidation(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := smoothField(d, 5)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -1, 1.5} {
		if _, err := DecodeChunkPartial(stream, d, frac, nil); err == nil {
			t.Errorf("fraction %g should fail", frac)
		}
	}
	if _, err := DecodeChunkPartial(nil, d, 0.5, nil); err == nil {
		t.Error("empty stream should fail")
	}
}

func TestModeRMSE(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 77)
	for _, target := range []float64{1.0, 0.1, 0.01} {
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModeRMSE, TargetRMSE: target})
		if err != nil {
			t.Fatalf("target=%g: %v", target, err)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatalf("target=%g: decode: %v", target, err)
		}
		got := metrics.RMSE(data, rec)
		if got > target {
			t.Errorf("target RMSE %g, achieved %g", target, got)
		}
		// Must not be wildly over-conservative either: the estimate comes
		// from the plane boundary just below the target.
		if got < target/100 {
			t.Errorf("target RMSE %g, achieved %g: truncation did not engage", target, got)
		}
	}
}

func TestModeRMSECheaperThanFinest(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 33)
	coarse, _, err := EncodeChunk(data, d, Params{Mode: ModeRMSE, TargetRMSE: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fine, _, err := EncodeChunk(data, d, Params{Mode: ModeRMSE, TargetRMSE: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) >= len(fine) {
		t.Errorf("coarse RMSE target (%d bytes) should cost less than fine (%d)",
			len(coarse), len(fine))
	}
}

func TestModeRMSEValidation(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := make([]float64, d.Len())
	if _, _, err := EncodeChunk(data, d, Params{Mode: ModeRMSE}); err == nil {
		t.Error("zero TargetRMSE should fail")
	}
}

func TestDecodeChunkLowRes(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 55)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// drop=0: full resolution, matches regular decode up to outlier
	// corrections (low-res path skips them).
	rec0, low0, err := DecodeChunkLowRes(stream, d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if low0 != d {
		t.Fatalf("drop=0 dims %v, want %v", low0, d)
	}
	if rmse := metrics.RMSE(data, rec0); rmse > 1e-5 {
		t.Errorf("drop=0 rmse %g", rmse)
	}
	// Each drop halves every axis (ceil) and shrinks the payload.
	prevLen := d.Len()
	for drop := 1; drop <= 3; drop++ {
		_, low, err := DecodeChunkLowRes(stream, d, drop, nil)
		if err != nil {
			t.Fatalf("drop=%d: %v", drop, err)
		}
		wantNX := d.NX
		for i := 0; i < drop; i++ {
			wantNX = (wantNX + 1) / 2
		}
		if low.NX != wantNX {
			t.Errorf("drop=%d: NX=%d, want %d", drop, low.NX, wantNX)
		}
		if low.Len() >= prevLen {
			t.Errorf("drop=%d: size %d did not shrink from %d", drop, low.Len(), prevLen)
		}
		prevLen = low.Len()
	}
	// Excessive drop clamps to the plan depth rather than failing.
	if _, _, err := DecodeChunkLowRes(stream, d, 99, nil); err != nil {
		t.Errorf("oversized drop should clamp: %v", err)
	}
	if _, _, err := DecodeChunkLowRes(stream, d, -1, nil); err == nil {
		t.Error("negative drop should fail")
	}
}

// A linear ramp is reproduced exactly (up to quantization and boundary
// effects) by the wavelet approximation at every level: coarse sample i
// corresponds to fine sample 2^drop * i, and LevelScale removes the DC
// gain. This pins down both the coarse geometry and the rescaling.
func TestDecodeChunkLowResRamp(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := make([]float64, d.Len())
	f := func(x, y, z int) float64 { return 3 + 0.5*float64(x) + 0.25*float64(y) - 0.125*float64(z) }
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				data[d.Index(x, y, z)] = f(x, y, z)
			}
		}
	}
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for drop := 1; drop <= 2; drop++ {
		rec, low, err := DecodeChunkLowRes(stream, d, drop, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := 1 << drop
		// Interior points only: symmetric extension bends the ramp at
		// the boundaries.
		var worst float64
		for z := 2; z < low.NZ-2; z++ {
			for y := 2; y < low.NY-2; y++ {
				for x := 2; x < low.NX-2; x++ {
					want := f(x*step, y*step, z*step)
					got := rec[low.Index(x, y, z)]
					if e := math.Abs(got - want); e > worst {
						worst = e
					}
				}
			}
		}
		if worst > 0.5 {
			t.Errorf("drop=%d: interior ramp deviates by %g", drop, worst)
		}
	}
}

// TestProgressiveDecodeOnArena: one warm arena reused across chunks of
// different shapes, modes and access kinds must reproduce the fresh-buffer
// decode bit for bit — the contract chunk.DecompressPartial/LowRes rely on
// when they run on the worker arenas.
func TestProgressiveDecodeOnArena(t *testing.T) {
	s := NewScratch()
	for _, tc := range []struct {
		d grid.Dims
		p Params
	}{
		{grid.D3(24, 17, 9), Params{Mode: ModePWE, Tol: 1e-4}},
		{grid.D3(8, 17, 30), Params{Mode: ModeBPP, BitsPerPoint: 3}},
		{grid.D3(24, 17, 9), Params{Mode: ModePWE, Tol: 1e-3, DisableLossless: true}},
	} {
		stream, _, err := EncodeChunk(smoothField(tc.d, 7), tc.d, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.3, 1} {
			want, err := DecodeChunkPartial(stream, tc.d, frac, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeChunkPartial(stream, tc.d, frac, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v frac %g: arena decode differs at %d", tc.d, frac, i)
				}
			}
		}
		for drop := 0; drop <= 2; drop++ {
			want, wlow, err := DecodeChunkLowRes(stream, tc.d, drop, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, glow, err := DecodeChunkLowRes(stream, tc.d, drop, s)
			if err != nil || glow != wlow {
				t.Fatalf("%v drop %d: dims %v want %v, err %v", tc.d, drop, glow, wlow, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v drop %d: arena decode differs at %d", tc.d, drop, i)
				}
			}
		}
	}
}

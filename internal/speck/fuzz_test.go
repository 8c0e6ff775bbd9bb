package speck

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sperr/internal/grid"
)

// FuzzIntEncoderMatchesOracle holds the one production encoder to the
// float oracle on fuzzed coefficients, steps and budgets: the stream must
// be the oracle's byte for byte when the oracle runs at the step the
// Result reports, and that step must be inside the clamp's range. raw's
// first three bytes pick the extent; every further 8 bytes are one
// coefficient's float64 bits, so magnitudes span the whole float64 range
// and the clamp fires often.
func FuzzIntEncoderMatchesOracle(f *testing.F) {
	seed := make([]byte, 3+8*24)
	seed[0], seed[1], seed[2] = 3, 2, 1
	for i := 0; i < 24; i++ {
		binary.LittleEndian.PutUint64(seed[3+8*i:], math.Float64bits(math.Sin(float64(i))*float64(i*i)))
	}
	f.Add(seed, int16(-10), uint16(0))
	f.Add(seed, int16(-60), uint16(0))
	f.Add(seed, int16(-1070), uint16(200))
	f.Fuzz(func(t *testing.T, raw []byte, qExp int16, maxBits uint16) {
		if len(raw) < 3 {
			return
		}
		dims := grid.D3(int(raw[0]%9)+1, int(raw[1]%9)+1, int(raw[2]%5)+1)
		raw = raw[3:]
		coeffs := make([]float64, dims.Len())
		for i := range coeffs {
			if 8*i+8 <= len(raw) {
				coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		q := math.Ldexp(1.5, int(qExp)%1100)
		if !(q > 0) || math.IsInf(q, 0) {
			return
		}
		var s Scratch
		res := EncodeScratch(coeffs, dims, q, uint64(maxBits), &s)
		if res.NumPlanes > maxPlanes || !(res.Q >= q) || res.Q < 0x1p-1022 {
			t.Fatalf("coded %d planes at step %g for q %g", res.NumPlanes, res.Q, q)
		}
		ref, _ := encodeFloat(coeffs, dims, res.Q, uint64(maxBits))
		if res.Bits != ref.Bits || res.NumPlanes != ref.NumPlanes || !bytes.Equal(res.Stream, ref.Stream) {
			t.Fatalf("stream differs from the oracle at step %g: %d/%d bits, %d/%d planes",
				res.Q, res.Bits, ref.Bits, res.NumPlanes, ref.NumPlanes)
		}
		if maxBits != 0 {
			return
		}
		replay, ok := ReplayScratch(dims, res.Q, &s)
		if !ok {
			t.Fatal("replay refused an untruncated encode")
		}
		got := Decode(res.Stream, res.Bits, dims, res.Q, res.NumPlanes)
		for i := range got {
			if math.Float64bits(replay[i]) != math.Float64bits(got[i]) {
				t.Fatalf("replay[%d] = %x, decode %x", i, replay[i], got[i])
			}
		}
	})
}

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

// FuzzDecodeMatchesOracle holds Decode to the per-bit oracle decoder on
// arbitrary bytes: any stream, any budget, any plane count Decode accepts
// (0..64), any step whose top threshold is finite (Decode's other
// precondition) and a small extent. Decode must not panic and must equal
// the oracle bit for bit. raw's first three bytes pick the extent;
// the rest is the stream. The seeds are a real stream cut mid-plane and
// the 64-plane header with an empty budget, which once read the value
// table's thresholds one past their end, and an 8-plane stream of
// coefficients near MaxFloat64, where 1.5*thr overflows on the top plane
// but the value table's doubled shorter chain did not.
func FuzzDecodeMatchesOracle(f *testing.F) {
	dims := grid.D3(6, 5, 3)
	res := Encode(intTestField(dims.Len(), 5, 1), dims, 1e-3, 0)
	f.Add(append([]byte{6, 5, 3}, res.Stream...), uint16(res.Bits/2), uint8(res.NumPlanes), int16(-10))
	f.Add([]byte{1, 1, 1, 0xff}, uint16(0), uint8(64), int16(0))
	huge := make([]float64, 32)
	for i := range huge {
		huge[i] = math.Ldexp(1.34+0.02*float64(i), 1023) * float64(1-2*(i&1))
	}
	res = Encode(huge, grid.D3(8, 4, 1), math.Ldexp(1.5, 1016), 0)
	f.Add(append([]byte{7, 3, 0}, res.Stream...), uint16(res.Bits), uint8(res.NumPlanes), int16(1016))
	f.Fuzz(func(t *testing.T, raw []byte, bitsAvail uint16, planes uint8, qExp int16) {
		if len(raw) < 3 {
			return
		}
		dims := grid.D3(int(raw[0]%9)+1, int(raw[1]%9)+1, int(raw[2]%5)+1)
		stream := raw[3:]
		q := math.Ldexp(1.5, int(qExp)%1100)
		if !(q > 0) || math.IsInf(q, 0) {
			return
		}
		p := int(planes % 65)
		if p > 0 && math.IsInf(math.Ldexp(q, p-1), 1) {
			return
		}
		got := Decode(stream, uint64(bitsAvail), dims, q, p)
		want := decodeOracle(stream, uint64(bitsAvail), dims, q, p)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v q=%g planes=%d bits=%d: out[%d]=%x, oracle %x", dims, q, p, bitsAvail, i, got[i], want[i])
			}
		}
	})
}

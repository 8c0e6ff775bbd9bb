package codec

// Property-based tests (testing/quick) on the codec's central invariants.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sperr/internal/grid"
)

// Property: for any finite input and positive tolerance, the PWE bound
// holds after a round trip.
func TestQuickPWEInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, tolExp int8) bool {
		r := rand.New(rand.NewSource(seed))
		d := grid.D3(2+r.Intn(10), 2+r.Intn(10), 2+r.Intn(10))
		data := make([]float64, d.Len())
		for i := range data {
			data[i] = r.NormFloat64() * math.Exp(float64(int(tolExp)%8))
		}
		tol := math.Exp2(float64(int(tolExp)%20 - 10))
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol})
		if err != nil {
			return false
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			return false
		}
		for i := range data {
			if math.Abs(rec[i]-data[i]) > tol*(1+1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: compression is deterministic — same input, same stream.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := grid.D3(2+r.Intn(8), 2+r.Intn(8), 2+r.Intn(8))
		data := make([]float64, d.Len())
		for i := range data {
			data[i] = r.NormFloat64()
		}
		s1, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
		if err != nil {
			return false
		}
		s2, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01})
		if err != nil {
			return false
		}
		return string(s1) == string(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: BPP mode respects its budget on arbitrary inputs.
func TestQuickBPPBudget(t *testing.T) {
	f := func(seed int64, rate8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := grid.D3(4+r.Intn(12), 4+r.Intn(12), 4+r.Intn(12))
		data := make([]float64, d.Len())
		for i := range data {
			data[i] = r.NormFloat64() * 100
		}
		bpp := 0.5 + float64(rate8%16)
		stream, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: bpp})
		if err != nil {
			return false
		}
		achieved := float64(len(rawFrame(t, stream))*8) / float64(d.Len())
		// Header amortization slack for tiny chunks.
		return achieved <= bpp+float64((headerSize+2)*8)/float64(d.Len())+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, symbols []int64) {
	t.Helper()
	enc := Encode(symbols)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(symbols) {
		t.Fatalf("decoded %d symbols, want %d", len(dec), len(symbols))
	}
	for i := range symbols {
		if dec[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, dec[i], symbols[i])
		}
	}
}

func TestEmpty(t *testing.T) { roundTrip(t, nil) }

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []int64{42})
	roundTrip(t, []int64{7, 7, 7, 7, 7, 7})
	roundTrip(t, []int64{-3})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int64{0, 1, 0, 0, 1, 0, 1, 1, 1, 0})
}

func TestNegativeSymbols(t *testing.T) {
	roundTrip(t, []int64{-1000000, 1000000, 0, -1, 1, -1, 0, 0})
}

func TestSkewedDistribution(t *testing.T) {
	// SZ-like: overwhelmingly zeros with rare nonzero bins.
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int64, 100000)
	for i := range symbols {
		if rng.Float64() < 0.02 {
			symbols[i] = int64(rng.Intn(9) - 4)
		}
	}
	enc := Encode(symbols)
	// The entropy is ~0.16 bits/symbol; Huffman floor is 1 bit/symbol.
	if got := float64(len(enc)*8) / float64(len(symbols)); got > 1.3 {
		t.Errorf("skewed stream cost %g bits/symbol, want close to 1", got)
	}
	roundTrip(t, symbols)
}

func TestUniformDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	symbols := make([]int64, 10000)
	for i := range symbols {
		symbols[i] = int64(rng.Intn(256))
	}
	enc := Encode(symbols)
	// 256 equiprobable symbols need ~8 bits each.
	bps := float64(len(enc)*8) / float64(len(symbols))
	if bps < 7.5 || bps > 9.5 {
		t.Errorf("uniform 256-symbol stream cost %g bits/symbol, want ~8", bps)
	}
	roundTrip(t, symbols)
}

func TestManyDistinctSymbols(t *testing.T) {
	symbols := make([]int64, 5000)
	for i := range symbols {
		symbols[i] = int64(i) // all distinct
	}
	roundTrip(t, symbols)
}

func TestCorrupt(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil should fail")
	}
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Error("truncated varint should fail")
	}
	valid := Encode([]int64{1, 2, 3, 1, 2, 1})
	if _, err := Decode(valid[:len(valid)-1]); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), -9223372036854775808, 9223372036854775807} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		symbols := make([]int64, len(raw))
		for i, v := range raw {
			symbols[i] = int64(v)
		}
		dec, err := Decode(Encode(symbols))
		if err != nil || len(dec) != len(symbols) {
			return false
		}
		for i := range symbols {
			if dec[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int64, 1<<16)
	for i := range symbols {
		if rng.Float64() < 0.05 {
			symbols[i] = int64(rng.Intn(64) - 32)
		}
	}
	b.SetBytes(int64(len(symbols)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(symbols)
	}
}

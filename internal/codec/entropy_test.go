package codec

import (
	"errors"
	"math"
	"testing"

	"sperr/internal/grid"
)

func TestEntropyModePWEGuarantee(t *testing.T) {
	d := grid.D3(24, 24, 24)
	data := smoothField(d, 63)
	for _, tol := range []float64{0.1, 1e-4} {
		stream, st, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, Entropy: true})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeChunk(stream, d)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, rec); e > tol*(1+1e-9) {
			t.Errorf("tol=%g: entropy mode max error %g", tol, e)
		}
		_ = st
	}
}

func TestEntropyModeSaves(t *testing.T) {
	d := grid.D3(32, 32, 32)
	data := smoothField(d, 71)
	tol := 1e-4
	raw, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	ac, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: tol, DisableLossless: true, Entropy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ac) >= len(raw) {
		t.Errorf("entropy mode did not shrink the chunk: %d vs %d bytes", len(ac), len(raw))
	}
}

func TestEntropyModeRejectsOtherModes(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := make([]float64, d.Len())
	if _, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: 2, Entropy: true}); err == nil {
		t.Error("entropy + BPP should fail")
	}
	if _, _, err := EncodeChunk(data, d, Params{Mode: ModeRMSE, TargetRMSE: 1, Entropy: true}); err == nil {
		t.Error("entropy + RMSE should fail")
	}
}

// TestForgedEntropyMode pins the decoder's handling of a tampered
// entropy-mode byte: values no encoder ever wrote must be rejected as
// ErrCorrupt (not silently decoded with a bit layer that does not
// exist), and the AC flag on a mode that cannot produce it likewise.
func TestForgedEntropyMode(t *testing.T) {
	d := grid.D3(12, 12, 12)
	data := smoothField(d, 17)
	// DisableLossless keeps the chunk header addressable at a fixed
	// offset: stream[0] is the raw marker, the header starts at 1, and
	// the entropy byte is header byte 3.
	const entropyOff = 1 + 3
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, forged := range []byte{2, 3, 0x80, 0xFF} {
		mut := append([]byte(nil), stream...)
		mut[entropyOff] = forged
		if _, err := DecodeChunk(mut, d); !errors.Is(err, ErrCorrupt) {
			t.Errorf("entropy byte %#x: got %v, want ErrCorrupt", forged, err)
		}
	}
	// The AC bit on a size-bounded stream: no encoder can write this
	// combination (Validate rejects Entropy outside PWE), so the decoder
	// must treat it as corruption.
	bppStream, _, err := EncodeChunk(data, d, Params{Mode: ModeBPP, BitsPerPoint: 2, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), bppStream...)
	mut[entropyOff] = 1
	if _, err := DecodeChunk(mut, d); !errors.Is(err, ErrCorrupt) {
		t.Errorf("entropy bit on BPP stream: got %v, want ErrCorrupt", err)
	}
	// A legitimate AC stream still decodes after the tightened parse.
	acStream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01, DisableLossless: true, Entropy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChunk(acStream, d); err != nil {
		t.Errorf("valid AC stream rejected: %v", err)
	}
}

func TestEntropyModePartialDecodeRejected(t *testing.T) {
	d := grid.D3(16, 16, 16)
	data := smoothField(d, 81)
	stream, _, err := EncodeChunk(data, d, Params{Mode: ModePWE, Tol: 0.01, Entropy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChunkPartial(stream, d, 0.5, nil); err == nil {
		t.Error("partial decode of an entropy stream should fail")
	}
	// Full-fraction partial decode and low-res decode must still work.
	if _, err := DecodeChunkPartial(stream, d, 1.0, nil); err != nil {
		t.Errorf("fraction=1: %v", err)
	}
	rec, low, err := DecodeChunkLowRes(stream, d, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if low != grid.D3(8, 8, 8) || len(rec) != 512 {
		t.Errorf("low-res decode of entropy stream wrong: %v, %d", low, len(rec))
	}
	for _, v := range rec {
		if math.IsNaN(v) {
			t.Fatal("NaN in low-res entropy decode")
		}
	}
}

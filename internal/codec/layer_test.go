package codec_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
)

// layerField is a smooth test chunk with a little texture.
func layerField(d grid.Dims) []float64 {
	v := make([]float64, d.Len())
	for i := range v {
		x, y, z := d.Coords(i)
		v[i] = math.Sin(0.3*float64(x))*math.Cos(0.2*float64(y)) + 0.1*float64(z) + 0.01*math.Sin(float64(7*i))
	}
	return v
}

// TestForgedEntropyMode pins the refusal of the bit-layer byte, chunk
// header byte 3 and index-footer aggregate byte 1, which named the
// arithmetic-coded SPECK layer (SPECK-AC, value 1) until it was retired.
// Every non-zero value — the 1 that SPECK-AC streams carry and values no
// encoder ever wrote — must fail every reader as ErrCorrupt naming
// SPECK-AC, never be decoded as raw bits.
func TestForgedEntropyMode(t *testing.T) {
	d := grid.D3(12, 12, 12)
	data := layerField(d)
	forged := []byte{1, 2, 3, 0x80, 0xFF}
	refused := func(what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) || !strings.Contains(err.Error(), "SPECK-AC") {
			t.Errorf("%s: got %v, want %v naming SPECK-AC", what, err, want)
		}
	}
	// DisableLossless keeps the chunk header addressable at a fixed offset:
	// stream[0] is the raw marker, the header starts at 1, and the layer
	// byte is header byte 3.
	const layerOff = 1 + 3
	for _, p := range []codec.Params{
		{Mode: codec.ModePWE, Tol: 0.01},
		{Mode: codec.ModeBPP, BitsPerPoint: 2},
		{Mode: codec.ModeRMSE, TargetRMSE: 0.01},
	} {
		p.DisableLossless = true
		stream, _, err := codec.EncodeChunk(data, d, p)
		if err != nil {
			t.Fatal(err)
		}
		if stream[layerOff] != 0 {
			t.Fatalf("mode %d: encoder wrote layer byte %d, want 0", p.Mode, stream[layerOff])
		}
		for _, b := range forged {
			mut := append([]byte(nil), stream...)
			mut[layerOff] = b
			what := func(call string) string { return fmt.Sprintf("%s mode %d byte %#x", call, p.Mode, b) }
			_, err := codec.DecodeChunk(mut, d)
			refused(what("DecodeChunk"), err, codec.ErrCorrupt)
			_, err = codec.DescribeChunk(mut)
			refused(what("DescribeChunk"), err, codec.ErrCorrupt)
			_, err = codec.DecodeChunkPartial(mut, d, 0.5, nil)
			refused(what("DecodeChunkPartial"), err, codec.ErrCorrupt)
			_, _, err = codec.DecodeChunkLowRes(mut, d, 1, nil)
			refused(what("DecodeChunkLowRes"), err, codec.ErrCorrupt)
		}
	}

	// The footer byte: the 32-byte aggregates end the index, just before
	// the 20-byte tail; the index checksum is recomputed so only the layer
	// byte is wrong.
	vol := grid.NewVolume(d)
	copy(vol.Data, data)
	stream, _, err := chunk.Compress(vol, chunk.Options{Params: codec.Params{Mode: codec.ModePWE, Tol: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	end := len(stream) - 20 // the footer tail: indexCRC u32 | indexOffset u64 | magic
	ixOff := int(binary.LittleEndian.Uint64(stream[end+4:]))
	layer := end - 32 + 1 // aggregates: mode u8 | layer u8 | ...
	if stream[layer] != 0 {
		t.Fatalf("writer put layer byte %d in the footer, want 0", stream[layer])
	}
	for _, b := range forged {
		mut := append([]byte(nil), stream...)
		mut[layer] = b
		binary.LittleEndian.PutUint32(mut[end:], crc32.Checksum(mut[ixOff:end], crc32.MakeTable(crc32.Castagnoli)))
		_, err := chunk.Describe(mut)
		refused("footer chunk.Describe", err, chunk.ErrCorrupt)
		_, err = chunk.Decompress(mut, 1)
		refused("footer chunk.Decompress", err, chunk.ErrCorrupt)
	}
}

// TestHeaderCountLimit: the chunk header stores the SPECK plane count and
// the outlier pass count in one byte each. A tolerance so fine that either
// count passes 255 must fail at encode; a wrapped count used to decode to
// garbage with no error.
func TestHeaderCountLimit(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := make([]float64, d.Len())
	for i := range data {
		data[i] = 1e10 * math.Sin(0.37*float64(i))
	}
	for _, p := range []codec.Params{
		{Mode: codec.ModePWE, Tol: 1e-70},
		{Mode: codec.ModeRMSE, TargetRMSE: 1e-70},
	} {
		stream, _, err := codec.EncodeChunk(data, d, p)
		if err == nil {
			rec, derr := codec.DecodeChunk(stream, d)
			worst := math.NaN()
			if derr == nil {
				worst = 0
				for i := range data {
					worst = math.Max(worst, math.Abs(rec[i]-data[i]))
				}
			}
			t.Errorf("mode %d: encode succeeded (decode err %v, worst error %g); want an error naming the header limit", p.Mode, derr, worst)
		} else if !strings.Contains(err.Error(), "255") {
			t.Errorf("mode %d: error %q does not name the limit", p.Mode, err)
		}
	}
	// Just inside the limit the count fits and the planes decode: the
	// worst error is nowhere near the field's range. (It is above the
	// tolerance, for a float-precision reason unrelated to the header.)
	tol := 1e-65
	stream, _, err := codec.EncodeChunk(data, d, codec.Params{Mode: codec.ModePWE, Tol: tol})
	if err != nil {
		t.Fatalf("tol %g: %v", tol, err)
	}
	meta, err := codec.DescribeChunk(stream)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Planes < 200 || meta.Planes > 255 {
		t.Fatalf("tol %g: %d planes, want a count near the limit", tol, meta.Planes)
	}
	rec, err := codec.DecodeChunk(stream, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if e := math.Abs(rec[i] - data[i]); e > 1 {
			t.Fatalf("tol %g: error %g at %d", tol, e, i)
		}
	}
}

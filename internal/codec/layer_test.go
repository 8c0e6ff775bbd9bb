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
	// A raw frame keeps the chunk header addressable at a fixed offset:
	// stream[0] is the raw marker, the header starts at 1, and the layer
	// byte is header byte 3.
	const layerOff = 1 + 3
	for _, p := range []codec.Params{
		{Mode: codec.ModePWE, Tol: 0.01},
		{Mode: codec.ModeBPP, BitsPerPoint: 2},
		{Mode: codec.ModeRMSE, TargetRMSE: 0.01},
	} {
		stream, _, err := codec.EncodeChunk(data, d, p)
		if err != nil {
			t.Fatal(err)
		}
		stream = codec.RawFrame(t, stream)
		if stream[layerOff] != 0 {
			t.Fatalf("mode %d: encoder wrote layer byte %d, want 0", p.Mode, stream[layerOff])
		}
		if _, err := codec.DescribeChunk(stream); err != nil {
			t.Fatalf("mode %d: the unforged raw frame does not describe: %v", p.Mode, err)
		}
		if _, err := codec.DecodeChunk(stream, d); err != nil {
			t.Fatalf("mode %d: the unforged raw frame does not decode: %v", p.Mode, err)
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
// the outlier pass count in one byte each, and a wrapped count used to
// decode to garbage with no error. Neither count can pass 255 now. A PWE
// tolerance that once needed over 200 planes is below the data's float64
// resolution and is refused; an RMSE target that fine codes SPECK's
// ceiling of 52 planes and keeps the full stream; and at the finest
// tolerance the floor admits, ulp(max|x|), the outlier passes fit the
// byte and the bound holds.
func TestHeaderCountLimit(t *testing.T) {
	d := grid.D3(8, 8, 8)
	data := make([]float64, d.Len())
	var maxAbs float64
	for i := range data {
		data[i] = 1e10 * math.Sin(0.37*float64(i))
		maxAbs = math.Max(maxAbs, math.Abs(data[i]))
	}
	maxErr := func(rec []float64) (worst float64) {
		for i := range data {
			worst = math.Max(worst, math.Abs(rec[i]-data[i]))
		}
		return worst
	}
	for _, tol := range []float64{1e-70, 1e-65} {
		_, _, err := codec.EncodeChunk(data, d, codec.Params{Mode: codec.ModePWE, Tol: tol})
		if !errors.Is(err, codec.ErrToleranceBelowResolution) {
			t.Errorf("PWE tol %g: err %v, want ErrToleranceBelowResolution", tol, err)
		}
	}

	stream, _, err := codec.EncodeChunk(data, d, codec.Params{Mode: codec.ModeRMSE, TargetRMSE: 1e-70})
	if err != nil {
		t.Fatalf("RMSE 1e-70: %v", err)
	}
	meta, err := codec.DescribeChunk(stream)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Planes != 52 {
		t.Fatalf("RMSE 1e-70: %d planes, want the 52-plane ceiling", meta.Planes)
	}
	rec, err := codec.DecodeChunk(stream, d)
	if err != nil {
		t.Fatal(err)
	}
	// 52 planes resolve the largest coefficient to about two of its ulps.
	if e := maxErr(rec); e > 1e-3 {
		t.Fatalf("RMSE 1e-70: worst error %g", e)
	}

	tol := math.Nextafter(maxAbs, math.Inf(1)) - maxAbs
	stream, st, err := codec.EncodeChunk(data, d, codec.Params{Mode: codec.ModePWE, Tol: tol})
	if err != nil {
		t.Fatalf("PWE at ulp(max|x|) = %g: %v", tol, err)
	}
	if meta, err = codec.DescribeChunk(stream); err != nil {
		t.Fatal(err)
	}
	if meta.Planes > 52 || meta.OutlierPasses > 255 {
		t.Fatalf("PWE tol %g: %d planes, %d outlier passes", tol, meta.Planes, meta.OutlierPasses)
	}
	if rec, err = codec.DecodeChunk(stream, d); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(rec); e > tol {
		t.Fatalf("PWE tol %g: worst error %g (%d outliers)", tol, e, st.NumOutliers)
	}
}

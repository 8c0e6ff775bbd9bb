package sperr

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sperr/internal/chunk"
)

// Property: salvage never reports a chunk recovered when its frame's
// CRC-32C no longer matches the payload. Every payload byte of every
// frame is flipped in turn; for each mutant the damaged chunk must be
// skipped with a checksum reason, and a full salvage decode must fill
// the chunk rather than deliver the damaged samples.

// frameRanges returns each frame's [start, end) byte range (length
// prefix through trailing CRC) for a v2 stream.
func frameRanges(t *testing.T, stream []byte) [][2]int {
	t.Helper()
	info, err := Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]int, len(info.FrameBytes))
	off := 36
	for i, n := range info.FrameBytes {
		out[i] = [2]int{off, off + 4 + n + 4}
		off = out[i][1]
	}
	return out
}

func TestSalvageNeverRecoversCRCMismatch(t *testing.T) {
	dims := [3]int{12, 10, 6}
	stream, _, err := CompressPWE(demoField(dims[0], dims[1], dims[2], 3), dims, 1e-2,
		&Options{ChunkDims: [3]int{6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	frames := frameRanges(t, stream)
	if len(frames) < 2 {
		t.Fatalf("fixture has %d frames, want several", len(frames))
	}

	for ci, fr := range frames {
		payload := [2]int{fr[0] + 4, fr[1] - 4}
		for off := payload[0]; off < payload[1]; off++ {
			mut := bytes.Clone(stream)
			mut[off] ^= 0x04

			rep, err := Audit(mut)
			if err != nil {
				t.Fatalf("frame %d byte %d: audit: %v", ci, off, err)
			}
			if rep.Chunks[ci].Recovered {
				t.Fatalf("frame %d byte %d: chunk reported recovered with mismatched CRC", ci, off)
			}
			if got := rep.Chunks[ci].Reason; got != "frame checksum mismatch" {
				t.Fatalf("frame %d byte %d: reason %q", ci, off, got)
			}

			// Strict decode must reject the stream outright.
			if _, _, err := Decompress(mut); err == nil {
				t.Fatalf("frame %d byte %d: strict decode accepted damaged stream", ci, off)
			}
		}

		// One full salvage decode per frame confirms the report translates
		// into filled — not damaged — samples.
		mut := bytes.Clone(stream)
		mut[(payload[0]+payload[1])/2] ^= 0x04
		data, gotDims, rep, err := DecompressSalvage(mut)
		if err != nil {
			t.Fatalf("frame %d: salvage: %v", ci, err)
		}
		if gotDims != dims {
			t.Fatalf("frame %d: dims %v", ci, gotDims)
		}
		if rep.Chunks[ci].Recovered {
			t.Fatalf("frame %d: salvage recovered a CRC-mismatched chunk", ci)
		}
		c := rep.Chunks[ci]
		for z := 0; z < c.Dims.NZ; z++ {
			for y := 0; y < c.Dims.NY; y++ {
				for x := 0; x < c.Dims.NX; x++ {
					i := ((c.Origin[2]+z)*dims[1]+c.Origin[1]+y)*dims[0] + c.Origin[0] + x
					if !math.IsNaN(data[i]) {
						t.Fatalf("frame %d: damaged chunk sample (%d,%d,%d) = %g, want NaN",
							ci, x, y, z, data[i])
					}
				}
			}
		}
	}
}

// A flipped trailing CRC with an intact index footer is the one case
// where the payload itself is provably undamaged: the footer's checksum
// copy still verifies it, so salvage keeps the chunk. This pins the
// asymmetry so it stays deliberate.
func TestSalvageTrailerCRCDamageRecoversThroughFooter(t *testing.T) {
	dims := [3]int{12, 10, 6}
	stream, _, err := CompressPWE(demoField(dims[0], dims[1], dims[2], 4), dims, 1e-2,
		&Options{ChunkDims: [3]int{6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	frames := frameRanges(t, stream)
	mut := bytes.Clone(stream)
	mut[frames[1][1]-2] ^= 0x80 // inside frame 1's trailing CRC

	rep, err := Audit(mut)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IndexIntact {
		t.Fatal("index footer should be intact")
	}
	if rep.Degraded() {
		t.Fatalf("footer-verified payload lost: skipped %v", rep.SkippedIndices())
	}
	data, _, _, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d differs after trailer-CRC damage", i)
		}
	}
}

// TestStreamingAndSalvageReportsAgree pins that the two fault-tolerant
// read paths tell the same story about the same bytes: the sequential
// Decoder under either tolerant policy and the random-access
// DecompressSalvage agree on every chunk the sequential walk could still
// frame, and — when the footer's own bytes are untouched — on whether the
// index footer is intact. A damaged frame must never be blamed on the
// footer.
func TestStreamingAndSalvageReportsAgree(t *testing.T) {
	type input struct {
		name         string
		data, origin []byte // origin: the undamaged container data derives from
	}
	readFixture := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var inputs []input
	v2 := readFixture("golden_pwe_24x17x9_v2.sperr")
	mutants, err := filepath.Glob(filepath.Join("testdata", "mutant_*.sperr"))
	if err != nil || len(mutants) == 0 {
		t.Fatalf("no mutant fixtures (err %v)", err)
	}
	for _, path := range mutants {
		inputs = append(inputs, input{filepath.Base(path), readFixture(filepath.Base(path)), v2})
	}
	for _, name := range []string{"golden_pwe_24x17x9_v2.sperr", "golden_adaptive_48x32x32_v3.sperr"} {
		clean := readFixture(name)
		for i, fr := range frameRanges(t, clean) {
			flipped := append([]byte(nil), clean...)
			flipped[(fr[0]+4+fr[1]-4)/2] ^= 0x20 // mid-payload
			inputs = append(inputs, input{fmt.Sprintf("%s/flip-frame-%d", name, i), flipped, clean})
		}
	}

	compared := 0
	for _, in := range inputs {
		_, _, sal, err := DecompressSalvage(in.data)
		if err != nil {
			continue // fixed header unusable: nothing to compare
		}
		info, err := Describe(in.origin)
		if err != nil {
			t.Fatal(err)
		}
		frames := frameRanges(t, in.origin)
		footerStart := frames[info.NumChunks-1][1]
		footerUntouched := len(in.data) == len(in.origin) && bytes.Equal(in.data[footerStart:], in.origin[footerStart:])
		for _, pol := range []ErrorPolicy{SkipChunk, FillChunk} {
			dec, err := NewDecoder(bytes.NewReader(in.data))
			if err != nil {
				continue
			}
			dec.SetErrorPolicy(pol)
			if _, _, err := dec.DecodeAll(); err != nil {
				t.Fatalf("%s: tolerant decode failed: %v", in.name, err)
			}
			str := dec.SalvageReport()
			compared++
			framed := true
			for i, c := range str.Chunks {
				// Framing survived for chunk i when the sequential walk read
				// the whole frame exactly where the undamaged container has
				// it; past a damaged length prefix it attributes bytes to
				// the wrong chunks and only the footer could know better.
				if c.Reason == chunk.ReasonTruncated || c.Reason == chunk.ReasonFramingLost ||
					c.Offset != int64(frames[i][0]) || c.Length != frames[i][1]-frames[i][0]-8 {
					framed = false
					continue
				}
				if c.Recovered != sal.Chunks[i].Recovered || c.Reason != sal.Chunks[i].Reason {
					t.Errorf("%s policy %d chunk %d: streaming says recovered=%v %q, salvage says recovered=%v %q",
						in.name, pol, i, c.Recovered, c.Reason, sal.Chunks[i].Recovered, sal.Chunks[i].Reason)
				}
			}
			if footerUntouched && framed && str.IndexIntact != sal.IndexIntact {
				t.Errorf("%s policy %d: streaming IndexIntact=%v, salvage IndexIntact=%v on an untouched footer",
					in.name, pol, str.IndexIntact, sal.IndexIntact)
			}
		}
	}
	if compared < len(mutants) {
		t.Fatalf("only %d comparisons ran", compared)
	}
}

package sperr

import (
	"bytes"
	"math"
	"testing"
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

// TestSalvageAttributesByPosition: a payload flip in frame 1 plus a flip in
// the index body sends salvage to the resync scan, which finds frames 0, 2
// and 3 of four equal-sized chunks. Attributed by sample count alone, frame
// 2 would land in chunk 1's box and frame 3 in chunk 2's, both reported
// recovered. Every chunk reported recovered must instead hold its own
// samples, through DecompressSalvage, Audit and Repair alike.
func TestSalvageAttributesByPosition(t *testing.T) {
	dims := [3]int{64, 16, 16}
	stream, _, err := CompressPWE(demoField(dims[0], dims[1], dims[2], 5), dims, 1e-2,
		&Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	clean, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameRanges(t, stream)
	if len(frames) != 4 {
		t.Fatalf("fixture has %d frames, want 4", len(frames))
	}
	for _, site := range []struct {
		name string
		off  int
	}{{"first index entry", frames[3][1]}, {"aggregates", frames[3][1] + 4*16 + 8}} {
		mut := bytes.Clone(stream)
		mut[(frames[1][0]+frames[1][1])/2] ^= 0x01
		mut[site.off] ^= 0x80

		// ownBox fails unless every recovered chunk of rep holds clean's
		// samples in its own box.
		ownBox := func(what string, data []float64, rep *SalvageReport) {
			t.Helper()
			for _, c := range rep.Chunks {
				if !c.Recovered {
					continue
				}
				for z := 0; z < c.Dims.NZ; z++ {
					for y := 0; y < c.Dims.NY; y++ {
						for x := 0; x < c.Dims.NX; x++ {
							i := ((c.Origin[2]+z)*dims[1]+c.Origin[1]+y)*dims[0] + c.Origin[0] + x
							if math.Float64bits(data[i]) != math.Float64bits(clean[i]) {
								t.Fatalf("%s, %s: chunk %d reported recovered holds other samples at (%d,%d,%d)",
									site.name, what, c.Index, x, y, z)
							}
						}
					}
				}
			}
		}

		data, _, rep, err := DecompressSalvage(mut)
		if err != nil {
			t.Fatal(err)
		}
		if rep.IndexIntact {
			t.Fatalf("%s: index footer reported intact", site.name)
		}
		if got := rep.SkippedIndices(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: DecompressSalvage skipped %v, want [1]", site.name, got)
		}
		ownBox("DecompressSalvage", data, rep)

		arep, err := Audit(mut)
		if err != nil {
			t.Fatal(err)
		}
		if got := arep.SkippedIndices(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: Audit skipped %v, want [1]", site.name, got)
		}

		fixed, rrep, err := Repair(mut)
		if err != nil {
			t.Fatal(err)
		}
		rdata, _, err := Decompress(fixed)
		if err != nil {
			t.Fatalf("%s: strict decode of the repair: %v", site.name, err)
		}
		ownBox("Repair", rdata, rrep)
	}
}

package sperr

// Native Go fuzz targets. `go test` runs the seed corpus as regular tests;
// `go test -fuzz=FuzzDecompress` explores further. The invariant under
// test: no input, however malformed, may panic a decoder — it must return
// an error or (for bit-level damage past the headers) garbage data of the
// declared shape.

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sperr/internal/chunk"
)

// fuzzDecodeCap bounds how many points a fuzzed container may declare, so
// a handful of corrupt header bytes cannot demand gigabytes ("no
// over-allocation" invariant). Real streams this small never reach it.
const fuzzDecodeCap = 1 << 22

func FuzzDecompress(f *testing.F) {
	// Seed with valid single- and multi-chunk streams plus systematic
	// damage: truncations at layer boundaries, bit flips in the container
	// header, the chunk length table, and the payloads.
	data := demoField(8, 8, 8, 99)
	stream, _, err := CompressPWE(data, [3]int{8, 8, 8}, 0.1, nil)
	if err != nil {
		f.Fatal(err)
	}
	multiData := demoField(20, 13, 9, 5)
	multi, _, err := CompressPWE(multiData, [3]int{20, 13, 9}, 1e-3, &Options{
		ChunkDims: [3]int{8, 8, 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stream)
	f.Add(multi)
	// Integer bit-plane SPECK coverage: a tight tolerance drives the plane
	// count deep (near the 52-plane eligibility edge), and a BPP-mode
	// stream exercises mid-plane truncation of the integer path's output.
	deep, _, err := CompressPWE(multiData, [3]int{20, 13, 9}, 1e-9, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deep)
	bpp, _, err := CompressBPP(multiData, [3]int{20, 13, 9}, 2, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bpp)
	// Stream-resident refinement coverage: a 17-plane chunk (one plane past
	// the decoder's two byte lanes, so the per-bit lane runs), and an
	// RMSE-mode stream, which is cut exactly at a plane boundary and so
	// reconstructs with a floor above plane 0.
	p17, _, err := CompressPWE(multiData, [3]int{20, 13, 9}, 1e-3, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p17)
	cutAtPlane, _, err := CompressRMSE(multiData, [3]int{20, 13, 9}, 0.05, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cutAtPlane)
	// Retired-layer coverage: a container shaped like the SPECK-AC streams
	// older builds wrote (bit-layer byte set in the chunk header and the
	// index footer, checksums intact), its truncations, and flips in the
	// chunk-header region where the layer byte lives (offset 44). A set
	// layer byte must fail as ErrCorrupt, never decode as raw bits.
	clean, _, err := CompressPWE(multiData, [3]int{20, 13, 9}, 1e-4, nil)
	if err != nil {
		f.Fatal(err)
	}
	ac := forgeLayer(f, clean, true, true)
	f.Add(ac)
	for _, cut := range []int{len(ac) - 1, len(ac) - 3, len(ac) * 3 / 4, len(ac) / 2} {
		if cut > 0 && cut < len(ac) {
			f.Add(ac[:cut])
		}
	}
	for _, pos := range []int{40, 41, 42, 43, 44, len(ac) / 2, len(ac) - 5} {
		if pos >= 0 && pos < len(ac) {
			mut := append([]byte(nil), ac...)
			mut[pos] ^= 0x03
			f.Add(mut)
		}
	}
	if len(deep) > 50 {
		f.Add(deep[:len(deep)/3])
		trunc := append([]byte(nil), deep...)
		trunc[len(trunc)-7] ^= 0x42
		f.Add(trunc)
	}
	// Container-v3 coverage: a mixed-codec adaptive stream, forged codec
	// tags (in-range and out-of-range, with and without the index map
	// agreeing), and cuts at the tag byte. All must fail as ErrCorrupt or
	// decode clean — never panic, never mis-dispatch to a wrong backend.
	adata := demoField(20, 13, 9, 6)
	av3, _, err := CompressAdaptive(adata, [3]int{20, 13, 9}, 1e-3, &Options{
		ChunkDims: [3]int{8, 8, 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(av3)
	for _, pos := range []int{40, 41, len(av3) / 2, len(av3) - 30} {
		if pos >= 0 && pos < len(av3) {
			mut := append([]byte(nil), av3...)
			mut[pos] ^= 0x07 // lands on/near a codec tag or index codec map byte
			f.Add(mut)
		}
	}
	for _, cut := range []int{41, len(av3) / 3, len(av3) - 21, len(av3) - 1} {
		if cut > 0 && cut < len(av3) {
			f.Add(av3[:cut])
		}
	}
	if v3, err := os.ReadFile(filepath.Join("testdata", "golden_adaptive_48x32x32_v3.sperr")); err == nil {
		f.Add(v3)
		f.Add(v3[:len(v3)/2])
		// Flip the first frame's codec tag (offset 40: header 36 + length
		// prefix 4) without repairing the CRC.
		mut := append([]byte(nil), v3...)
		mut[40] ^= 0x01
		f.Add(mut)
		// And an out-of-range tag.
		mut2 := append([]byte(nil), v3...)
		mut2[40] = 0x63
		f.Add(mut2)
	}
	f.Add([]byte{})
	f.Add([]byte("SPRRGO01garbage"))
	f.Add([]byte("SPRRGO02garbage"))
	f.Add([]byte("SPRRGO03garbage"))
	// The frozen v1 fixture: every reader refuses it at the magic, and
	// Repair upgrades it (or refuses a damaged one) — the upgrade path
	// stays in the fuzz corpus.
	if v1, err := os.ReadFile(filepath.Join("testdata", "golden_pwe_24x17x9.sperr")); err == nil {
		f.Add(v1)
		f.Add(v1[:len(v1)/2])
	}
	// Checked-in mutants from the fault-injection campaign
	// (internal/faultinject, regenerated via -update-seeds): corruption
	// shapes the campaign proved interesting for the salvage path.
	if mutants, err := filepath.Glob(filepath.Join("testdata", "mutant_*.sperr")); err == nil {
		for _, path := range mutants {
			if seed, err := os.ReadFile(path); err == nil {
				f.Add(seed)
			}
		}
	}
	// v2 structural damage: truncations at the frame and index-footer
	// boundaries, and bit flips inside the index entries and tail.
	for _, cut := range []int{len(multi) - 20, len(multi) - 21, len(multi) - 52} {
		if cut > 0 {
			f.Add(multi[:cut])
		}
	}
	for _, pos := range []int{len(multi) - 1, len(multi) - 9, len(multi) - 17, len(multi) - 24, len(multi) - 45} {
		if pos >= 0 {
			mut := append([]byte(nil), multi...)
			mut[pos] ^= 0x04
			f.Add(mut)
		}
	}
	for _, cut := range []int{1, 7, 8, 35, 36, 40, len(multi) / 2, len(multi) - 1} {
		if cut < len(multi) {
			f.Add(multi[:cut])
		}
	}
	for _, pos := range []int{0, 9, 33, 37, 41, 60} { // magic, dims, nchunks, length table, payload
		if pos < len(multi) {
			mut := append([]byte(nil), multi...)
			mut[pos] ^= 0x80
			f.Add(mut)
		}
	}
	mutated := append([]byte(nil), stream...)
	for i := 10; i < len(mutated); i += 17 {
		mutated[i] ^= 0xA5
	}
	f.Add(mutated)
	// A header that declares an enormous volume in 45 bytes: must be
	// rejected by the decode cap, not allocated.
	huge := []byte("SPRRGO02")
	for _, v := range []uint32{0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0, 1, 1, 1, 1} {
		huge = binary.LittleEndian.AppendUint32(huge, v)
	}
	f.Add(append(huge, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		old := chunk.MaxDecodePoints
		chunk.MaxDecodePoints = fuzzDecodeCap
		defer func() { chunk.MaxDecodePoints = old }()
		rec, dims, err := Decompress(in)
		if err == nil {
			if len(rec) != dims[0]*dims[1]*dims[2] {
				t.Fatalf("shape mismatch: %d values for %v", len(rec), dims)
			}
		}
		_, _, _ = DecompressPartial(in, 0.5)
		_, _, _ = DecompressLowRes(in, 1)
		_, _ = Describe(in)
		// The fault-tolerant surfaces share the no-panic invariant, with
		// one more clause: when the strict decode succeeds, salvage must
		// agree (same shape, zero skipped chunks).
		sdata, sdims, rep, serr := DecompressSalvage(in)
		if err == nil {
			if serr != nil {
				t.Fatalf("strict decode ok but salvage failed: %v", serr)
			}
			if sdims != dims || len(sdata) != len(rec) || rep.Skipped != 0 {
				t.Fatalf("salvage disagrees with strict decode: dims %v/%v skipped %d",
					sdims, dims, rep.Skipped)
			}
		}
		_, _ = Audit(in)
		if fixed, _, rerr := Repair(in); rerr == nil {
			// A successful repair must produce a strictly decodable stream.
			if _, _, derr := Decompress(fixed); derr != nil {
				t.Fatalf("repaired stream rejected by strict decode: %v", derr)
			}
		}
	})
}

func FuzzCompressDecompress(f *testing.F) {
	// Round-trip invariant on arbitrary (finite) inputs: the PWE bound
	// must hold for whatever bytes the fuzzer interprets as floats, at
	// tolerances 1e-1 ... 1e-300 (tolExp picks the exponent), or encode
	// must refuse a tolerance below the data's float64 resolution.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint16(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint16(14))
	f.Add([]byte{0x80, 0x7f, 3, 0}, uint8(4), uint16(299))
	f.Fuzz(func(t *testing.T, raw []byte, side uint8, tolExp uint16) {
		n := int(side%6) + 2 // 2..7 per axis
		need := n * n * n
		data := make([]float64, need)
		for i := range data {
			var v float64
			if len(raw) > 0 {
				v = float64(int8(raw[i%len(raw)])) * 0.125
			}
			data[i] = v
		}
		tol := math.Pow(10, -float64(1+tolExp%300))
		stream, _, err := CompressPWE(data, [3]int{n, n, n}, tol, nil)
		if errors.Is(err, ErrToleranceBelowResolution) {
			return
		}
		if err != nil {
			t.Fatalf("compress at tol %g: %v", tol, err)
		}
		rec, dims, err := Decompress(stream)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if dims != [3]int{n, n, n} {
			t.Fatalf("dims %v", dims)
		}
		for i := range data {
			if math.Abs(rec[i]-data[i]) > tol*(1+1e-9) {
				t.Fatalf("PWE violated at %d: %g vs %g", i, rec[i], data[i])
			}
		}
	})
}

package sperr

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// forgeLayer returns a copy of a v2 container written with
// DisableLossless (so each chunk header sits at a fixed offset in its
// frame) with the retired bit-layer byte set to 1 in every chunk header
// (inHeaders) and/or in the index footer's aggregates (inFooter), every
// checksum recomputed. Both set is the shape of the SPECK-AC containers
// older builds wrote.
func forgeLayer(tb testing.TB, stream []byte, inHeaders, inFooter bool) []byte {
	tb.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := append([]byte(nil), stream...)
	if string(out[:8]) != "SPRRGO02" {
		tb.Fatalf("forgeLayer needs a v2 container, got magic %q", out[:8])
	}
	tail := out[len(out)-20:]
	nchunks := int(binary.LittleEndian.Uint32(out[32:]))
	index := out[binary.LittleEndian.Uint64(tail[4:12]) : len(out)-20]
	for i := 0; i < nchunks; i++ {
		entry := index[16*i:]
		off := int(binary.LittleEndian.Uint64(entry)) + 4
		payload := out[off : off+int(binary.LittleEndian.Uint32(entry[8:]))]
		if inHeaders {
			if payload[0] != 0xFF {
				tb.Fatal("forgeLayer needs chunk payloads stored raw (DisableLossless)")
			}
			payload[1+3] = 1 // raw marker, then chunk-header byte 3
		}
		crc := crc32.Checksum(payload, castagnoli)
		binary.LittleEndian.PutUint32(out[off+len(payload):], crc)
		binary.LittleEndian.PutUint32(entry[12:], crc)
	}
	if inFooter {
		index[len(index)-32+1] = 1 // the 32-byte aggregates: mode u8 | layer u8 | ...
	}
	binary.LittleEndian.PutUint32(tail, crc32.Checksum(index, castagnoli))
	return out
}

// TestRetiredSPECKACRefused: a container whose chunk headers or index
// footer name the retired arithmetic-coded SPECK layer fails every read
// surface as ErrCorrupt, naming SPECK-AC, rather than being misread as
// raw bits. Describe reads only the footer on v2, so the header-only
// forgery reaches it through the decoders alone.
func TestRetiredSPECKACRefused(t *testing.T) {
	data, dims := streamTestInput()
	raw, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(forgeLayer(t, raw, false, false)); err != nil {
		t.Fatalf("re-checksummed clean container rejected: %v", err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "SPECK-AC") {
			t.Errorf("%s: got %v, want ErrCorrupt naming SPECK-AC", what, err)
		}
	}
	for _, tc := range []struct {
		name              string
		inHeaders, footer bool
	}{
		{"headers and footer", true, true},
		{"footer", false, true},
		{"headers", true, false},
	} {
		forged := forgeLayer(t, raw, tc.inHeaders, tc.footer)
		_, _, err := Decompress(forged)
		refused(tc.name+": Decompress", err)
		_, err = DecompressRegion(forged, [3]int{0, 0, 0}, [3]int{4, 4, 2})
		refused(tc.name+": DecompressRegion", err)
		if tc.footer {
			_, err = Describe(forged)
			refused(tc.name+": Describe", err)
		}
	}
}

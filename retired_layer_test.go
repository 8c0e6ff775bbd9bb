package sperr

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"sperr/internal/lossless"
)

// forgeLayer returns a copy of a v2 container with the retired bit-layer
// byte set to 1 in every chunk header (inHeaders) and/or in the index
// footer's aggregates (inFooter), every checksum recomputed. Both set is
// the shape of the SPECK-AC containers older builds wrote.
func forgeLayer(tb testing.TB, stream []byte, inHeaders, inFooter bool) []byte {
	tb.Helper()
	var header, aggregates func([]byte)
	if inHeaders {
		header = func(h []byte) { h[3] = 1 }
	}
	if inFooter {
		aggregates = func(a []byte) { a[1] = 1 } // mode u8 | layer u8 | ...
	}
	return reforge(tb, stream, header, aggregates)
}

// rawFrames returns a copy of a v2 container whose chunk payloads are
// inflated and re-wrapped behind the 0xFF raw marker — the frame form no
// encoder writes any more but every reader still opens — with frame
// offsets, lengths and every checksum recomputed. Each chunk header then
// sits at a fixed offset in its frame, after the marker.
func rawFrames(tb testing.TB, stream []byte) []byte {
	tb.Helper()
	if string(stream[:8]) != "SPRRGO02" {
		tb.Fatalf("rawFrames needs a v2 container, got magic %q", stream[:8])
	}
	le := binary.LittleEndian
	tail := stream[len(stream)-20:]
	nchunks := int(le.Uint32(stream[32:]))
	index := stream[le.Uint64(tail[4:12]) : len(stream)-20]
	out := append([]byte(nil), stream[:36]...)
	var entries []byte
	for i := 0; i < nchunks; i++ {
		entry := index[16*i:]
		off := int(le.Uint64(entry)) + 4
		payload, err := lossless.Decompress(stream[off : off+int(le.Uint32(entry[8:]))])
		if err != nil {
			tb.Fatalf("chunk %d: %v", i, err)
		}
		payload = append([]byte{0xFF}, payload...)
		crc := crc32.Checksum(payload, testCastagnoli)
		entries = le.AppendUint64(entries, uint64(len(out)))
		entries = le.AppendUint32(entries, uint32(len(payload)))
		entries = le.AppendUint32(entries, crc)
		out = le.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = le.AppendUint32(out, crc)
	}
	indexOff := len(out)
	out = append(out, entries...)
	out = append(out, index[16*nchunks:]...) // the aggregates
	out = le.AppendUint32(out, crc32.Checksum(out[indexOff:], testCastagnoli))
	out = le.AppendUint64(out, uint64(indexOff))
	return append(out, tail[12:]...)
}

// reforge returns rawFrames(stream) after header has edited every chunk's
// 40-byte header and aggregates the index footer's 32-byte aggregates
// (either may be nil), every checksum recomputed.
func reforge(tb testing.TB, stream []byte, header, aggregates func([]byte)) []byte {
	tb.Helper()
	out := rawFrames(tb, stream)
	tail := out[len(out)-20:]
	nchunks := int(binary.LittleEndian.Uint32(out[32:]))
	index := out[binary.LittleEndian.Uint64(tail[4:12]) : len(out)-20]
	for i := 0; i < nchunks; i++ {
		entry := index[16*i:]
		off := int(binary.LittleEndian.Uint64(entry)) + 4
		payload := out[off : off+int(binary.LittleEndian.Uint32(entry[8:]))]
		if header != nil {
			header(payload[1:41]) // after the raw marker
		}
		crc := crc32.Checksum(payload, testCastagnoli)
		binary.LittleEndian.PutUint32(out[off+len(payload):], crc)
		binary.LittleEndian.PutUint32(entry[12:], crc)
	}
	if aggregates != nil {
		aggregates(index[len(index)-32:])
	}
	binary.LittleEndian.PutUint32(tail, crc32.Checksum(index, testCastagnoli))
	return out
}

// TestRetiredSPECKACRefused: a container whose chunk headers or index
// footer name the retired arithmetic-coded SPECK layer fails every read
// surface as ErrCorrupt, naming SPECK-AC, rather than being misread as
// raw bits. Describe reads only the footer on v2, so the header-only
// forgery reaches it through the decoders alone.
func TestRetiredSPECKACRefused(t *testing.T) {
	data, dims := streamTestInput()
	clean, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(forgeLayer(t, clean, false, false)); err != nil {
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
		forged := forgeLayer(t, clean, tc.inHeaders, tc.footer)
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

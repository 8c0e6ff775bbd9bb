package sperr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"sperr/internal/chunk"
)

// Deterministic adversarial-stream regressions backing the fuzz tier:
// every one of these inputs once mapped to a panic or an unbounded
// allocation class, and must now fail with a clean error.

// containerHeader builds a v2 container header with the given seven u32
// fields. (A v1 magic would be refused before any field is read.)
func containerHeader(fields ...uint32) []byte {
	return containerHeaderMagic("SPRRGO02", fields...)
}

func containerHeaderMagic(magic string, fields ...uint32) []byte {
	out := []byte(magic)
	for _, v := range fields {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

func TestCorruptStreamsErrorNotPanic(t *testing.T) {
	valid, _, err := CompressPWE(demoField(20, 13, 9, 5), [3]int{20, 13, 9}, 1e-3,
		&Options{ChunkDims: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": []byte("SPRRGO0"),
		"bad magic":    append([]byte("NOTSPERR"), valid[8:]...),
		// 0xFFFFFFF0^3 points: the dims product overflows int64.
		"overflowing dims": append(containerHeader(0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0, 1, 1, 1, 1), 0, 0, 0, 0),
		// A large but non-overflowing volume must hit the decode cap.
		"capped volume": append(containerHeader(4096, 4096, 1, 4096, 4096, 1, 1), 0, 0, 0, 0),
		// Claimed chunk count cannot fit in the remaining bytes.
		"chunk count beyond stream": append(containerHeader(16, 16, 16, 8, 8, 8, 0xFFFFFF), 0, 0, 0, 0),
		// Chunk count disagrees with the declared geometry.
		"wrong chunk count":     append(containerHeader(16, 16, 16, 8, 8, 8, 3), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated first frame": valid[:8+4*7+2],
		// The retired v1 magic is refused before its fields are read.
		"retired v1 magic":  append([]byte("SPRRGO01"), valid[8:]...),
		"truncated payload": valid[:len(valid)-3],
		// v2-specific header damage: right magic, hostile fields.
		"v2 bare header":       append(containerHeaderMagic("SPRRGO02", 16, 16, 16, 8, 8, 8, 8), 0, 0, 0, 0),
		"v2 overflowing dims":  append(containerHeaderMagic("SPRRGO02", 0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0, 1, 1, 1, 1), 0, 0, 0, 0),
		"v2 wrong chunk count": append(containerHeaderMagic("SPRRGO02", 16, 16, 16, 8, 8, 8, 3), make([]byte, 256)...),
		"v2 zeroed tail":       append(append([]byte(nil), valid[:len(valid)-20]...), make([]byte, 20)...),
	}
	// The header cases must fail at the check their comment names, not
	// earlier at the magic; Describe runs every check the strict parser
	// has.
	reaches := map[string]string{
		"overflowing dims":          "overflow",
		"capped volume":             "decode cap",
		"chunk count beyond stream": "exceeds stream capacity",
		"wrong chunk count":         "does not match geometry",
		"retired v1 magic":          "sperr repair",
	}
	old := chunk.MaxDecodePoints
	chunk.MaxDecodePoints = 1 << 22
	defer func() { chunk.MaxDecodePoints = old }()
	for name, in := range cases {
		if _, _, err := Decompress(in); err == nil {
			t.Errorf("%s: Decompress accepted corrupt input", name)
		}
		if _, err := Describe(in); err == nil {
			t.Errorf("%s: Describe accepted corrupt input", name)
		} else if want := reaches[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Describe failed with %q, want it to reach %q", name, err, want)
		}
		if _, _, err := DecompressPartial(in, 0.5); err == nil {
			t.Errorf("%s: DecompressPartial accepted corrupt input", name)
		}
	}
}

// Bit-level damage inside chunk payloads must never panic: it either
// fails the lossless/codec validation or decodes to garbage of the
// declared shape.
func TestBitFlippedPayloadsNoPanic(t *testing.T) {
	valid, _, err := CompressPWE(demoField(20, 13, 9, 5), [3]int{20, 13, 9}, 1e-3,
		&Options{ChunkDims: [3]int{8, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(valid); pos += 3 {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= mask
			rec, dims, err := Decompress(mut)
			if err == nil && len(rec) != dims[0]*dims[1]*dims[2] {
				t.Fatalf("flip @%d/%#x: shape mismatch %d vs %v", pos, mask, len(rec), dims)
			}
			if _, err := Describe(mut); err != nil &&
				strings.Contains(err.Error(), "panic") {
				t.Fatalf("flip @%d/%#x: %v", pos, mask, err)
			}
		}
	}
}

// TestDeepPlaneHeaders: a chunk header's plane count reaches SPECK, so a
// checksum-valid container may carry any byte there. 64 planes with an
// empty SPECK stream once indexed the decoder's 64-entry threshold table
// at 64 and panicked on a chunk-reader worker goroutine, where no caller
// can recover; it must decode (to zeros: no bit was coded) on every read
// surface. 65 planes and more are past what the decoder reads and are
// refused as ErrCorrupt naming the resolution floor.
func TestDeepPlaneHeaders(t *testing.T) {
	clean, _, err := CompressPWE(demoField(6, 5, 4, 3), [3]int{6, 5, 4}, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	withPlanes := func(planes byte) []byte {
		return reforge(t, clean, func(h []byte) {
			h[1] = planes
			h[2] = 0                                 // no outlier passes
			binary.LittleEndian.PutUint64(h[20:], 0) // SPECK bits
			binary.LittleEndian.PutUint64(h[28:], 0) // outlier bits
		}, nil)
	}
	deep := withPlanes(64)
	got, _, err := Decompress(deep)
	if err != nil {
		t.Fatalf("64 planes, empty stream: %v", err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("64 planes, empty stream: sample %d decodes to %g", i, v)
		}
	}
	if _, _, err := DecompressPartial(deep, 0.5); err != nil {
		t.Fatalf("64 planes, empty stream, partial: %v", err)
	}
	dec, err := NewDecoder(bytes.NewReader(deep))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.DecodeAll(); err != nil {
		t.Fatalf("64 planes, empty stream, streaming decoder: %v", err)
	}
	for _, planes := range []byte{65, 255} {
		_, _, err := Decompress(withPlanes(planes))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "float64 resolution") {
			t.Errorf("%d planes: got %v, want ErrCorrupt naming the resolution floor", planes, err)
		}
	}
}

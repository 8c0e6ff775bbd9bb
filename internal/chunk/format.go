package chunk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// Container format v2 ("SPRRGO02") wraps the per-chunk codec streams in
// length-prefixed, checksummed frames and appends a seekable index footer,
// so that
//
//   - a sequential reader (io.Reader) can decode chunk by chunk with
//     memory bounded by the in-flight chunk set, never the volume;
//   - a random-access reader ([]byte or io.ReaderAt) can locate any
//     chunk's frame from the footer alone, paying only for the chunks a
//     region decode actually intersects; and
//   - Describe answers from the fixed header plus the footer without
//     touching any frame payload.
//
// Layout:
//
//	fixed header (36 bytes):
//	    magic "SPRRGO02" | volDims 3xu32 | chunkDims 3xu32 | nchunks u32
//	frames, one per chunk in container (z-major) order:
//	    payloadLen u32 | payload | crc32c(payload) u32
//	index footer, at indexOffset:
//	    nchunks x { frameOffset u64 | payloadLen u32 | crc32c u32 }
//	    aggregates (32 bytes):
//	        mode u8 | layer u8 (always 0) | pad[6] | tol f64 | speckBits u64 | outlierBits u64
//	    tail (20 bytes):
//	        indexCRC u32 (crc32c of entries + aggregates) | indexOffset u64 | magic "SPRRIX02"
//
// frameOffset addresses the frame's payloadLen field from the start of
// the container. Format v1 ("SPRRGO01") is the same fixed header followed
// by bare { payloadLen u32 | payload } frames with no checksums and no
// footer; it remains fully decodable.
//
// Format v3 ("SPRRGO03") carries the multi-backend container: each frame
// payload is a one-byte codec tag followed by the backend stream (the
// frame CRC covers the tag), and the footer inserts a codec map — one
// CodecID byte per chunk, mirroring the frame tags — between the index
// entries and the aggregates:
//
//	index footer v3, at indexOffset:
//	    nchunks x { frameOffset u64 | payloadLen u32 | crc32c u32 }
//	    nchunks x codec u8
//	    aggregates (32 bytes, mode may be ModeAdaptive)
//	    tail (20 bytes, magic "SPRRIX03")
//
// The map lets `sperr inspect` and Describe report the per-chunk codec
// without opening any frame, and gives readers a cross-check against the
// frame tags. Everything else is identical to v2.

// layout is everything that differs between the container generations.
// This file is the only one that names a generation: parseFixedHeader
// turns the magic into a layout, and the rest of the package asks it
// indexed / tagged / overhead or calls its methods, never a number.
type layout struct {
	version  int
	magic    [8]byte // opens the fixed header
	ixMagic  [8]byte // closes the index footer (indexed generations only)
	overhead int     // frame bytes beyond the payload: the length prefix, plus the CRC when indexed
	indexed  bool    // frames end in their CRC-32C and the stream ends in an index footer
	tagged   bool    // payloads lead with a codec tag byte and the footer carries the codec map
}

var layouts = [...]layout{
	{version: 1, magic: magicOf("SPRRGO01"), overhead: 4},
	{version: 2, magic: magicOf("SPRRGO02"), ixMagic: magicOf("SPRRIX02"), overhead: 8, indexed: true},
	{version: 3, magic: magicOf("SPRRGO03"), ixMagic: magicOf("SPRRIX03"), overhead: 8, indexed: true, tagged: true},
}

func magicOf(s string) [8]byte { return [8]byte([]byte(s)) }

// layoutOfMagic identifies the generation a fixed header announces.
func layoutOfMagic(magic [8]byte) (layout, bool) {
	for _, l := range layouts {
		if l.magic == magic {
			return l, true
		}
	}
	return layout{}, false
}

// writeLayout returns the generation new containers are written in: v3
// exists for streams whose frames need codec tags; everything else keeps
// emitting v2 byte-for-byte. v1 is read-only, so a rewrite of a v1
// container (Repair) upgrades it to v2.
func writeLayout(tagged bool) layout {
	if tagged {
		return layouts[2]
	}
	return layouts[1]
}

// indexSize returns the exact footer size for nchunks chunks; the codec
// map costs one more byte per chunk.
func (l layout) indexSize(nchunks int) int {
	size := nchunks*indexEntrySize + aggregateSize + tailSize
	if l.tagged {
		size += nchunks
	}
	return size
}

// decode reconstructs one chunk from its frame payload: an untagged
// payload is a SPERR stream; a tagged one dispatches on its codec tag. A
// tag outside the registry fails as ErrCorrupt; it must never fall
// through to some backend's decoder. A payload its decoder rejects fails
// as ErrCorrupt too, keeping the decoder's error.
func (l layout) decode(payload []byte, dims grid.Dims, s *codec.Scratch) ([]float64, error) {
	if !l.tagged {
		data, err := codec.DecodeChunkScratch(payload, dims, s)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return data, nil
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: empty frame payload", ErrCorrupt)
	}
	b, ok := codec.Lookup(codec.CodecID(payload[0]))
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec tag %d", ErrCorrupt, payload[0])
	}
	data, err := b.Decode(payload[1:], dims, s)
	if err != nil {
		// A CRC-valid frame whose tagged backend rejects the stream is
		// corruption evidence (e.g. a consistently forged tag): surface it
		// under the container's error identity, keeping the backend's too.
		return nil, fmt.Errorf("%w: codec %s: %w", ErrCorrupt, b.Name(), err)
	}
	return data, nil
}

// describe parses a frame payload's self-description without decoding it.
func (l layout) describe(payload []byte) (*codec.StreamMeta, error) {
	if l.tagged {
		return codec.DescribeTagged(payload)
	}
	return codec.DescribeChunk(payload)
}

// stub returns the payload of a placeholder frame for a chunk coded by id:
// empty, or the bare codec tag so the frame still agrees with the codec
// map. Appending a backend stream to it yields that backend's frame.
func (l layout) stub(id codec.CodecID) []byte {
	if l.tagged {
		return []byte{byte(id)}
	}
	return nil
}

const (
	// fixedHeaderSize covers the magic and the seven u32 geometry fields,
	// identical in every generation.
	fixedHeaderSize = 8 + 4*7
	// indexEntrySize is one footer entry: offset u64, length u32, crc u32.
	indexEntrySize = 8 + 4 + 4
	// aggregateSize is the footer's aggregate block.
	aggregateSize = 32
	// tailSize is the fixed footer tail: indexCRC u32, indexOffset u64,
	// end magic.
	tailSize = 4 + 8 + 8
)

// castagnoli is the CRC-32C polynomial table used for frame and index
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the checksum stored after each indexed frame's payload and
// in the matching index entry.
func frameCRC(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// indexEntry locates one chunk's frame within the container.
type indexEntry struct {
	offset uint64 // of the frame's length prefix, from container start
	length uint32 // payload bytes (excluding prefix and trailing CRC)
	crc    uint32 // crc32c of the payload
}

// aggregates is the footer's stream-level summary: what Describe needs
// without opening any frame. All chunks of one container share the coding
// mode, so the scalars are container-wide.
type aggregates struct {
	mode        codec.Mode
	tol         float64
	speckBits   uint64
	outlierBits uint64
}

// appendFixedHeader marshals the 36-byte fixed header.
func appendFixedHeader(dst []byte, l layout, volDims, chunkDims grid.Dims, nchunks int) []byte {
	dst = append(dst, l.magic[:]...)
	for _, v := range []int{volDims.NX, volDims.NY, volDims.NZ,
		chunkDims.NX, chunkDims.NY, chunkDims.NZ, nchunks} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// appendIndex marshals the footer (entries, codec map when tagged,
// aggregates, tail) given the byte offset at which the footer will be
// written.
func appendIndex(dst []byte, l layout, entries []indexEntry, codecs []codec.CodecID, agg aggregates, indexOffset uint64) []byte {
	start := len(dst)
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.offset)
		dst = binary.LittleEndian.AppendUint32(dst, e.length)
		dst = binary.LittleEndian.AppendUint32(dst, e.crc)
	}
	if l.tagged {
		for _, id := range codecs {
			dst = append(dst, byte(id))
		}
	}
	var ab [aggregateSize]byte
	ab[0] = byte(agg.mode)
	// ab[1] is the retired bit-layer byte, always 0 (see parseIndex).
	binary.LittleEndian.PutUint64(ab[8:], math.Float64bits(agg.tol))
	binary.LittleEndian.PutUint64(ab[16:], agg.speckBits)
	binary.LittleEndian.PutUint64(ab[24:], agg.outlierBits)
	dst = append(dst, ab[:]...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.LittleEndian.AppendUint64(dst, indexOffset)
	return append(dst, l.ixMagic[:]...)
}

// parseIndex validates and decodes the footer region of an indexed
// container. indexBytes must span [indexOffset, end) of the stream;
// streamLen is the total container length, used to bound the entries. The
// returned codec map is non-nil exactly for tagged layouts.
func parseIndex(indexBytes []byte, l layout, nchunks int, indexOffset uint64, streamLen int) ([]indexEntry, []codec.CodecID, aggregates, error) {
	var agg aggregates
	want := l.indexSize(nchunks)
	if len(indexBytes) != want {
		return nil, nil, agg, fmt.Errorf("%w: index footer is %d bytes, want %d", ErrCorrupt, len(indexBytes), want)
	}
	tail := indexBytes[len(indexBytes)-tailSize:]
	if [8]byte(tail[12:]) != l.ixMagic {
		return nil, nil, agg, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint64(tail[4:12]); got != indexOffset {
		return nil, nil, agg, fmt.Errorf("%w: index offset %d, tail says %d", ErrCorrupt, indexOffset, got)
	}
	body := indexBytes[:len(indexBytes)-tailSize]
	if crc := crc32.Checksum(body, castagnoli); crc != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, nil, agg, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	entries := make([]indexEntry, nchunks)
	next := uint64(fixedHeaderSize)
	for i := range entries {
		off := i * indexEntrySize
		e := indexEntry{
			offset: binary.LittleEndian.Uint64(body[off:]),
			length: binary.LittleEndian.Uint32(body[off+8:]),
			crc:    binary.LittleEndian.Uint32(body[off+12:]),
		}
		// Frames are contiguous from the fixed header to the footer; any
		// other arrangement is corruption.
		if e.offset != next {
			return nil, nil, agg, fmt.Errorf("%w: frame %d at offset %d, want %d", ErrCorrupt, i, e.offset, next)
		}
		end := e.offset + uint64(l.overhead) + uint64(e.length)
		if end > indexOffset || end > uint64(streamLen) {
			return nil, nil, agg, fmt.Errorf("%w: frame %d overruns index", ErrCorrupt, i)
		}
		entries[i] = e
		next = end
	}
	if next != indexOffset {
		return nil, nil, agg, fmt.Errorf("%w: %d frame bytes unaccounted before index", ErrCorrupt, indexOffset-next)
	}
	var codecs []codec.CodecID
	ab := body[nchunks*indexEntrySize:]
	if l.tagged {
		codecs = make([]codec.CodecID, nchunks)
		for i := 0; i < nchunks; i++ {
			id := codec.CodecID(ab[i])
			if _, ok := codec.Lookup(id); !ok {
				return nil, nil, agg, fmt.Errorf("%w: unknown codec %d for chunk %d in index", ErrCorrupt, id, i)
			}
			codecs[i] = id
		}
		ab = ab[nchunks:]
	}
	agg.mode = codec.Mode(ab[0])
	switch agg.mode {
	case codec.ModePWE, codec.ModeBPP, codec.ModeRMSE:
	case codec.ModeAdaptive:
		if !l.tagged {
			return nil, nil, agg, fmt.Errorf("%w: adaptive mode in an untagged index", ErrCorrupt)
		}
	default:
		return nil, nil, agg, fmt.Errorf("%w: unknown mode %d in index", ErrCorrupt, agg.mode)
	}
	// Byte 1 named the SPECK bit layer; 1 marked a container of retired
	// arithmetic-coded (SPECK-AC) chunks, which no longer decode.
	if ab[1] != 0 {
		return nil, nil, agg, fmt.Errorf("%w: bit-layer byte %d in index (SPECK-AC streams are no longer decodable)", ErrCorrupt, ab[1])
	}
	agg.tol = math.Float64frombits(binary.LittleEndian.Uint64(ab[8:]))
	agg.speckBits = binary.LittleEndian.Uint64(ab[16:])
	agg.outlierBits = binary.LittleEndian.Uint64(ab[24:])
	return entries, codecs, agg, nil
}

// locateIndex reads the fixed tail of an indexed stream and returns the
// index footer's offset.
func locateIndex(stream []byte, l layout) (uint64, error) {
	if len(stream) < fixedHeaderSize+tailSize {
		return 0, fmt.Errorf("%w: stream too short for index tail", ErrCorrupt)
	}
	tail := stream[len(stream)-tailSize:]
	if [8]byte(tail[12:]) != l.ixMagic {
		return 0, fmt.Errorf("%w: missing index magic", ErrCorrupt)
	}
	off := binary.LittleEndian.Uint64(tail[4:12])
	if off < fixedHeaderSize || off > uint64(len(stream)-tailSize) {
		return 0, fmt.Errorf("%w: index offset %d out of range", ErrCorrupt, off)
	}
	return off, nil
}

// readIndex locates and parses the index footer of a whole indexed
// container held in memory — the random-access entry every seekable
// consumer (strict parse, salvage, repair) shares.
func readIndex(stream []byte, l layout, nchunks int) ([]indexEntry, []codec.CodecID, aggregates, error) {
	off, err := locateIndex(stream, l)
	if err != nil {
		return nil, nil, aggregates{}, err
	}
	return parseIndex(stream[off:], l, nchunks, off, len(stream))
}

// frameWriter is the one emitter of container bytes: the fixed header on
// construction, then one length|payload|crc frame per chunk in container
// order, then the index footer. It only writes indexed generations (see
// writeLayout).
type frameWriter struct {
	layout
	w       io.Writer
	off     uint64 // container bytes written so far
	entries []indexEntry
	next    int     // index of the next frame
	words   [8]byte // the frame's length prefix and CRC as written
}

func newFrameWriter(w io.Writer, l layout, volDims, chunkDims grid.Dims, nchunks int) (*frameWriter, error) {
	hdr := appendFixedHeader(make([]byte, 0, fixedHeaderSize), l, volDims, chunkDims, nchunks)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("chunk: write header: %w", err)
	}
	return &frameWriter{layout: l, w: w, off: fixedHeaderSize, entries: make([]indexEntry, nchunks)}, nil
}

// frame writes the next chunk's frame and records its index entry. crc is
// passed in rather than recomputed so that a frame copied from another
// container travels verbatim, recorded checksum included.
func (fw *frameWriter) frame(payload []byte, crc uint32) error {
	pre, post := fw.words[:4], fw.words[4:]
	binary.LittleEndian.PutUint32(pre, uint32(len(payload)))
	binary.LittleEndian.PutUint32(post, crc)
	for _, b := range [][]byte{pre, payload, post} {
		if _, err := fw.w.Write(b); err != nil {
			return fmt.Errorf("chunk: write frame %d: %w", fw.next, err)
		}
	}
	fw.entries[fw.next] = indexEntry{offset: fw.off, length: uint32(len(payload)), crc: crc}
	fw.off += uint64(fw.overhead + len(payload))
	fw.next++
	return nil
}

// finish writes the index footer and returns the container's total length.
func (fw *frameWriter) finish(codecs []codec.CodecID, agg aggregates) (int, error) {
	footer := appendIndex(make([]byte, 0, fw.indexSize(len(fw.entries))), fw.layout, fw.entries, codecs, agg, fw.off)
	if _, err := fw.w.Write(footer); err != nil {
		return 0, fmt.Errorf("chunk: write index: %w", err)
	}
	return int(fw.off) + len(footer), nil
}

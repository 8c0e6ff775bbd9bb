package chunk

import (
	"encoding/binary"
	"fmt"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// container is a parsed SPERR-Go container stream of any generation. On
// indexed layouts, payload checksums are deferred to payload(): parse
// walks only the header and index footer, so random-access consumers
// (Describe, DecompressRegion) never touch the frames they skip.
type container struct {
	layout
	volDims   grid.Dims
	chunkDims grid.Dims
	chunks    []grid.Chunk
	payloads  [][]byte        // one compressed stream per chunk, aliasing the input
	crcs      []uint32        // indexed: expected payload crc32c, verified lazily
	codecs    []codec.CodecID // tagged: per-chunk codec map from the footer
	agg       aggregates      // indexed: the footer's aggregates
}

// MaxDecodePoints, when positive, bounds the number of points a container
// may declare before any decode-side allocation happens — a guard when
// feeding untrusted streams to Decompress (the fuzz harness sets it).
// Zero means unlimited. Set it once, before concurrent use.
var MaxDecodePoints int

// mulOK returns a*b and whether the product fits an int without overflow.
// All operands are non-negative.
func mulOK(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validateGeometry checks a container's declared geometry arithmetically
// before any geometry-sized allocation happens: a corrupt header must not
// be able to provoke a huge or overflowing make(). It returns the chunk
// split on success.
func validateGeometry(volDims, chunkDims grid.Dims, nchunks int) ([]grid.Chunk, error) {
	if !volDims.Valid() || !chunkDims.Valid() {
		return nil, fmt.Errorf("%w: invalid dims %v / %v", ErrCorrupt, volDims, chunkDims)
	}
	xy, ok1 := mulOK(volDims.NX, volDims.NY)
	points, ok2 := mulOK(xy, volDims.NZ)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: volume dims %v overflow", ErrCorrupt, volDims)
	}
	if MaxDecodePoints > 0 && points > MaxDecodePoints {
		return nil, fmt.Errorf("%w: volume of %d points exceeds decode cap %d",
			ErrCorrupt, points, MaxDecodePoints)
	}
	cxy, ok1 := mulOK(ceilDiv(volDims.NX, chunkDims.NX), ceilDiv(volDims.NY, chunkDims.NY))
	want, ok2 := mulOK(cxy, ceilDiv(volDims.NZ, chunkDims.NZ))
	if !ok1 || !ok2 || want != nchunks {
		return nil, fmt.Errorf("%w: chunk count %d does not match geometry (%d)",
			ErrCorrupt, nchunks, want)
	}
	return grid.SplitChunks(volDims, chunkDims), nil
}

// parseFixedHeader decodes and validates the 36-byte fixed header every
// generation shares, returning the generation's layout, the declared
// geometry and the chunk split. It is the common entry of the strict
// parser (parseContainer), the streaming Reader, and the salvage path,
// which must keep going on streams whose frame region is damaged.
func parseFixedHeader(stream []byte) (l layout, volDims, chunkDims grid.Dims, chunks []grid.Chunk, err error) {
	if len(stream) < fixedHeaderSize {
		return l, volDims, chunkDims, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	l, ok := layoutOfMagic([8]byte(stream[:8]))
	if !ok {
		return l, volDims, chunkDims, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(stream[off:])) }
	volDims = grid.Dims{NX: u32(8), NY: u32(12), NZ: u32(16)}
	chunkDims = grid.Dims{NX: u32(20), NY: u32(24), NZ: u32(28)}
	chunks, err = validateGeometry(volDims, chunkDims, u32(32))
	return l, volDims, chunkDims, chunks, err
}

// parseContainer validates and indexes a container stream without
// decoding (or, on indexed layouts, even checksumming) any chunk payloads.
func parseContainer(stream []byte) (*container, error) {
	if len(stream) < fixedHeaderSize {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	// Every chunk costs at least a 4-byte length prefix, so the declared
	// chunk count is bounded by the bytes that remain — checked before
	// validateGeometry's products so a lying count cannot size the chunk
	// slice either.
	nchunks := int(binary.LittleEndian.Uint32(stream[32:]))
	if nchunks > (len(stream)-fixedHeaderSize)/4 {
		return nil, fmt.Errorf("%w: chunk count %d exceeds stream capacity", ErrCorrupt, nchunks)
	}
	l, volDims, chunkDims, chunks, err := parseFixedHeader(stream)
	if err != nil {
		return nil, err
	}
	c := &container{layout: l, volDims: volDims, chunkDims: chunkDims, chunks: chunks}
	if c.indexed {
		return c, c.parseIndexed(stream)
	}
	c.payloads = make([][]byte, nchunks)
	off := fixedHeaderSize
	for i := 0; i < nchunks; i++ {
		if off+4 > len(stream) {
			return nil, fmt.Errorf("%w: truncated at chunk %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		off += 4
		if n < 0 || off+n > len(stream) {
			return nil, fmt.Errorf("%w: chunk %d payload truncated", ErrCorrupt, i)
		}
		c.payloads[i] = stream[off : off+n]
		off += n
	}
	return c, nil
}

// parseIndexed indexes the stream from its footer alone: the frames are
// located by the index entries, not by walking length prefixes, so this
// is O(nchunks) in the footer and touches no frame bytes.
func (c *container) parseIndexed(stream []byte) error {
	entries, codecs, agg, err := readIndex(stream, c.layout, len(c.chunks))
	if err != nil {
		return err
	}
	c.agg, c.codecs = agg, codecs
	c.payloads = make([][]byte, len(entries))
	c.crcs = make([]uint32, len(entries))
	for i, e := range entries {
		// parseIndex proved offset+overhead+length <= indexOffset <= len(stream).
		start := int(e.offset) + 4
		c.payloads[i] = stream[start : start+int(e.length)]
		c.crcs[i] = e.crc
	}
	return nil
}

// payload returns chunk i's compressed stream, verifying its checksum
// first on indexed containers. Verification happens here — at access time
// — rather than at parse time, so consumers pay only for the frames they
// actually open. On tagged layouts the returned bytes include the leading
// codec tag.
func (c *container) payload(i int) ([]byte, error) {
	p := c.payloads[i]
	if c.crcs != nil {
		if got := frameCRC(p); got != c.crcs[i] {
			return nil, fmt.Errorf("%w: chunk %d checksum mismatch", ErrCorrupt, i)
		}
	}
	return p, nil
}

// decodeChunk decodes chunk i of the container after verifying its
// checksum; a tagged frame's codec tag must also agree with the footer's
// codec map.
func (c *container) decodeChunk(i int, dims grid.Dims, s *codec.Scratch) ([]float64, error) {
	payload, err := c.payload(i)
	if err != nil {
		return nil, err
	}
	if c.tagged && len(payload) > 0 && codec.CodecID(payload[0]) != c.codecs[i] {
		return nil, fmt.Errorf("%w: chunk %d frame tag %d disagrees with index codec %d",
			ErrCorrupt, i, payload[0], c.codecs[i])
	}
	return c.decode(payload, dims, s)
}

// sperrPayload returns chunk i's SPERR stream for the progressive-access
// paths (partial and low-resolution decode), which are SPERR-specific: on
// a tagged container the chunk must be SPERR-coded and the tag is stripped.
func (c *container) sperrPayload(i int) ([]byte, error) {
	payload, err := c.payload(i)
	if err != nil {
		return nil, err
	}
	if !c.tagged {
		return payload, nil
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: chunk %d frame empty", ErrCorrupt, i)
	}
	if id := codec.CodecID(payload[0]); id != codec.CodecSPERR {
		return nil, fmt.Errorf("chunk: progressive access requires SPERR-coded chunks; chunk %d is %s", i, id)
	}
	return payload[1:], nil
}

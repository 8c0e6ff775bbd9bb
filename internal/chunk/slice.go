package chunk

// Shard slicing for the cluster layer: a coordinator splits a container
// at frame boundaries and ships each peer only the frames of the chunks
// it owns. The shard is itself a valid container — same fixed header,
// same geometry, same footer layout — so a peer stores and serves it
// through the exact same code paths as a whole volume. Chunks the peer
// does not own become stub frames: an empty payload (v2) or the bare
// codec tag (v3), checksummed like any frame and indexed by a rewritten
// footer. Stubs parse and audit as "present but not recoverable", which
// is precisely the contract the shard store records as ownership.

import (
	"bytes"
	"fmt"

	"sperr/internal/codec"
)

// StubFrameMaxLen is the largest payload a shard stub frame may carry
// (the v3 codec tag byte). The shard store uses it to tell deliberate
// stubs apart from damaged frames: a non-recoverable chunk whose indexed
// payload is longer than this is corruption, not slicing.
const StubFrameMaxLen = 1

// SliceShard rebuilds a v2/v3 container keeping only the frames of the
// chunks for which keep returns true. Kept frames are copied verbatim
// (payload bytes and checksum unchanged, so their chunks later decode
// bit-identically); every other frame shrinks to a stub. The index
// footer is regenerated with the new offsets while preserving the codec
// map and the container-wide aggregates, so Describe on a shard reports
// the full volume's geometry and contract. Keeping every chunk
// reproduces the input byte for byte.
//
// v1 containers have no index footer to slice against and no frame
// checksums to carry ownership evidence; they are rejected.
func SliceShard(stream []byte, keep func(int) bool) ([]byte, error) {
	c, err := parseContainer(stream)
	if err != nil {
		return nil, err
	}
	if !c.indexed {
		return nil, fmt.Errorf("chunk: cannot slice a v1 container (no index footer); repair upgrades it to v2")
	}
	pick := make([]*container, len(c.chunks))
	for i := range pick {
		if !keep(i) {
			// A tagged frame always carries at least its tag, stubs
			// included; an empty one is damage, even if it is not kept.
			if c.tagged && len(c.payloads[i]) < 1 {
				return nil, fmt.Errorf("%w: chunk %d frame empty", ErrCorrupt, i)
			}
			continue
		}
		// payload() verifies the frame checksum, so a shard can never
		// launder a damaged frame into a "kept" chunk.
		if _, err := c.payload(i); err != nil {
			return nil, err
		}
		pick[i] = c
	}
	return c.rebuild(pick), nil
}

// rebuild re-emits c with chunk i carrying pick[i]'s frame verbatim —
// payload bytes and recorded checksum — or, where pick[i] is nil, a stub.
// Every picked container must share c's layout, geometry and codec map.
// The codec map and aggregates survive the footer round trip, so a tagged
// stub can always be synthesized from the map even when no input's frame
// for that chunk carries a trustworthy tag byte.
func (c *container) rebuild(pick []*container) []byte {
	payloads := make([][]byte, len(pick))
	crcs := make([]uint32, len(pick))
	size := fixedHeaderSize + c.indexSize(len(pick))
	for i, src := range pick {
		if src != nil {
			payloads[i], crcs[i] = src.payloads[i], src.crcs[i]
		} else {
			var id codec.CodecID
			if c.tagged {
				id = c.codecs[i]
			}
			payloads[i] = c.stub(id)
			crcs[i] = frameCRC(payloads[i])
		}
		size += c.overhead + len(payloads[i])
	}
	// Writes to a bytes.Buffer cannot fail, so the emitter's errors are
	// unreachable here.
	buf := bytes.NewBuffer(make([]byte, 0, size))
	fw, _ := newFrameWriter(buf, c.layout, c.volDims, c.chunkDims, len(pick))
	for i := range payloads {
		_ = fw.frame(payloads[i], crcs[i])
	}
	_, _ = fw.finish(c.codecs, c.agg)
	return buf.Bytes()
}

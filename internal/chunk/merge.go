package chunk

// Shard merging for the replicated cluster layer: when a peer receives a
// second shard of a volume it already holds — a replicated re-ingest, an
// anti-entropy repair response, or the fan-in of a rejoining node — the
// two shards must converge to one container holding the union of their
// real frames. Merging is frame-granular and byte-exact: a frame is
// taken verbatim from whichever input carries it intact, so a merged
// chunk decodes bit-identically to the original container no matter how
// many merges it has been through. Damage never survives a merge with a
// clean replica — a frame that fails its checksum loses to an intact
// copy of the same chunk, which is exactly the self-healing property the
// scrubber relies on.

import "fmt"

// frameState classifies one chunk's frame within a shard being merged.
type frameState int

const (
	frameStub    frameState = iota // deliberate slicing stub
	frameIntact                    // real payload, checksum verified
	frameDamaged                   // real-length payload failing its checksum
)

// classifyFrame decides what chunk i's frame contributes to a merge.
func classifyFrame(c *container, i int) frameState {
	p := c.payloads[i]
	if len(p) <= StubFrameMaxLen {
		return frameStub
	}
	if frameCRC(p) != c.crcs[i] {
		return frameDamaged
	}
	return frameIntact
}

// MergeShards combines two shards of the same volume into one container
// holding, for each chunk, the first intact frame found in (a, b) order;
// chunks intact in neither input stay (or become) stubs. Both inputs
// must describe the same geometry, version, and codec map — shards of
// different volumes, or of the same volume under different contracts,
// refuse to merge. Merging a shard with itself, or
// with a subset of itself, reproduces it byte for byte.
//
// A damaged frame (real length, bad checksum) is tolerated in either
// input: it simply loses to an intact copy from the other side, and
// degrades to a stub when no intact copy exists — the chunk then leaves
// the owned set rather than poisoning it, and the anti-entropy scrubber
// re-fetches it from a replica that still has it.
func MergeShards(a, b []byte) ([]byte, error) {
	ca, err := parseContainer(a)
	if err != nil {
		return nil, fmt.Errorf("merge: first shard: %w", err)
	}
	cb, err := parseContainer(b)
	if err != nil {
		return nil, fmt.Errorf("merge: second shard: %w", err)
	}
	if ca.version != cb.version || ca.volDims != cb.volDims ||
		ca.chunkDims != cb.chunkDims || len(ca.chunks) != len(cb.chunks) {
		return nil, fmt.Errorf("%w: shards describe different volumes (v%d %v/%v vs v%d %v/%v)",
			ErrCorrupt, ca.version, ca.volDims, ca.chunkDims, cb.version, cb.volDims, cb.chunkDims)
	}
	for i := range ca.codecs {
		if ca.codecs[i] != cb.codecs[i] {
			return nil, fmt.Errorf("%w: shards disagree on chunk %d codec (%d vs %d)",
				ErrCorrupt, i, ca.codecs[i], cb.codecs[i])
		}
	}

	// Each chunk comes from the first input holding it intact; nil leaves
	// a stub.
	pick := make([]*container, len(ca.chunks))
	for i := range pick {
		switch {
		case classifyFrame(ca, i) == frameIntact:
			pick[i] = ca
		case classifyFrame(cb, i) == frameIntact:
			pick[i] = cb
		}
	}
	return ca.rebuild(pick), nil
}

// OwnedChunks scans a container and returns the sorted indices of
// the chunks whose frames are real and intact — the shard's owned set as
// evidenced by the bytes themselves, not a manifest. Damaged frames and
// stubs are both excluded.
func OwnedChunks(shard []byte) ([]int, error) {
	c, err := parseContainer(shard)
	if err != nil {
		return nil, err
	}
	owned := make([]int, 0, len(c.chunks))
	for i := range c.chunks {
		if classifyFrame(c, i) == frameIntact {
			owned = append(owned, i)
		}
	}
	return owned, nil
}

package sperr

import "sperr/internal/chunk"

// StubFrameMaxLen is the largest payload a cluster shard's stub frame
// may carry (the v3 codec tag byte). A non-recoverable chunk whose
// indexed payload is longer than this is damage, not deliberate
// slicing — the shard store uses the bound to tell the two apart.
const StubFrameMaxLen = chunk.StubFrameMaxLen

// SliceShard rebuilds a container keeping only the frames of the
// chunks for which keep returns true; every other frame shrinks to a
// checksummed stub and the index footer is regenerated around the new
// offsets. The shard is a valid container describing the full volume's
// geometry, its kept chunks decode bit-identically to the original, and
// keeping every chunk reproduces the input byte for byte. This is the
// unit of placement for a sperrd cluster: each peer receives the shard
// holding exactly the frames it owns.
func SliceShard(stream []byte, keep func(int) bool) ([]byte, error) {
	return chunk.SliceShard(stream, keep)
}

// MergeShards combines two shards of the same volume into one container
// holding, per chunk, the first intact frame found in (a, b) order;
// chunks intact in neither stay stubs. Frames are copied byte-verbatim,
// so merged chunks decode bit-identically to the original container. A
// damaged frame in either input loses to an intact copy from the other
// — the primitive behind replicated re-ingest convergence and the
// anti-entropy scrubber's self-healing graft. Shards of different
// volumes (or the same volume under different contracts) refuse to
// merge with ErrCorrupt.
func MergeShards(a, b []byte) ([]byte, error) {
	return chunk.MergeShards(a, b)
}

// OwnedChunks returns the sorted indices of the chunks whose frames in a
// container are real and checksum-intact — a shard's owned set as
// evidenced by its bytes, independent of any manifest. Stubs and damaged
// frames are both excluded.
func OwnedChunks(shard []byte) ([]int, error) {
	return chunk.OwnedChunks(shard)
}

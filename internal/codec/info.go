package codec

import (
	"fmt"

	"sperr/internal/lossless"
)

// StreamMeta describes a coded chunk without decoding it.
type StreamMeta struct {
	// Codec identifies the backend that wrote the chunk (CodecSPERR for
	// streams described by DescribeChunk; the SPERR-specific fields below
	// are zero for other backends).
	Codec CodecID
	// Mode is the termination criterion the chunk was coded with.
	Mode Mode
	// Tol is the point-wise tolerance (PWE mode; zero otherwise).
	Tol float64
	// Q is the SPECK base quantization step.
	Q float64
	// Planes is the number of SPECK bitplanes.
	Planes int
	// OutlierPasses is the number of outlier-coder threshold passes.
	OutlierPasses int
	// SpeckBits and OutlierBits are the embedded stream lengths.
	SpeckBits, OutlierBits uint64
	// Points is the chunk's sample count recorded in the header; zero on
	// streams written before the field existed.
	Points int
}

// DescribeChunk parses a chunk stream's header without reconstructing
// data. Only the header-sized prefix of the lossless layer is inflated,
// so the cost is independent of the chunk's payload size.
func DescribeChunk(stream []byte) (*StreamMeta, error) {
	if len(stream) < 1 {
		return nil, ErrCorrupt
	}
	var payload []byte
	if stream[0] == 0xFF {
		payload = stream[1:]
		if len(payload) > headerSize {
			payload = payload[:headerSize]
		}
	} else {
		var err error
		payload, err = lossless.DecompressPrefix(stream, headerSize)
		if err != nil {
			return nil, err
		}
	}
	h, err := parseHeader(payload)
	if err != nil {
		return nil, err
	}
	return &StreamMeta{
		Codec:         CodecSPERR,
		Mode:          h.mode,
		Tol:           h.tol,
		Q:             h.q,
		Planes:        int(h.planes),
		OutlierPasses: int(h.opasses),
		SpeckBits:     h.speckBits,
		OutlierBits:   h.outlierBits,
		Points:        int(h.points),
	}, nil
}

// DescribeTagged parses a container-v3 frame payload — a one-byte codec
// tag followed by the backend stream — without decoding data. An unknown
// tag fails as ErrCorrupt, never as a misread of another backend's header.
func DescribeTagged(payload []byte) (*StreamMeta, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: short tagged payload (%d bytes)", ErrCorrupt, len(payload))
	}
	b, ok := Lookup(CodecID(payload[0]))
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec tag %d", ErrCorrupt, payload[0])
	}
	meta, err := b.Describe(payload[1:])
	if err != nil {
		return nil, err
	}
	meta.Codec = b.ID()
	return meta, nil
}

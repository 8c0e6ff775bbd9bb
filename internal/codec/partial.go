package codec

import (
	"fmt"

	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/outlier"
	"sperr/internal/speck"
)

// openChunk undoes the lossless layer of a chunk stream (or strips the
// 0xFF raw marker, which no encoder writes any more but older or outside
// streams may carry), parses and validates its header against dims, and
// returns the header, the body after it, and the byte length of the SPECK
// stream at the front of the body. An inflated body lives in the arena s.
// What it passes meets speck.Decode's preconditions: a chunk of at most
// MaxChunkPoints samples, at most 64 planes, a finite top threshold.
func openChunk(stream []byte, dims grid.Dims, s *Scratch) (h *header, body []byte, speckBytes int, err error) {
	if len(stream) < 1 {
		return nil, nil, 0, fmt.Errorf("%w: empty stream", ErrCorrupt)
	}
	if dims.Len() > MaxChunkPoints {
		return nil, nil, 0, fmt.Errorf("%w: %v holds %d samples, above the %d-sample chunk limit", ErrCorrupt, dims, dims.Len(), MaxChunkPoints)
	}
	payload := stream[1:]
	if stream[0] != 0xFF {
		if payload, err = lossless.DecompressInto(s.payload, stream); err != nil {
			return nil, nil, 0, err
		}
		s.payload = payload
	}
	if h, err = parseHeader(payload); err != nil {
		return nil, nil, 0, err
	}
	if err = h.checkPoints(dims); err != nil {
		return nil, nil, 0, err
	}
	body = payload[headerSize:]
	// Compare in the bit domain: a corrupt 64-bit length must not survive
	// the bytes conversion (whose +7 could wrap) into a slice bound.
	if h.speckBits > uint64(len(body))*8 {
		return nil, nil, 0, fmt.Errorf("%w: SPECK stream truncated (%d bits > %d bytes)",
			ErrCorrupt, h.speckBits, len(body))
	}
	return h, body, int((h.speckBits + 7) / 8), nil
}

// DecodeChunkPartial reconstructs a chunk from a prefix of its embedded
// SPECK bitstream: fraction in (0, 1] selects how many of the coded bits
// to use. This exercises the embedded property of SPECK streams the paper
// highlights for streaming applications (Section VII): any prefix decodes
// to a valid, coarser reconstruction.
//
// Outlier corrections apply only to the full-precision reconstruction, so
// they are skipped whenever fraction < 1 (the corrections are relative to
// the complete SPECK decode).
//
// Every temporary comes from the arena s (nil means fresh buffers), and
// with a non-nil scratch the returned slice aliases it: copy out before
// the arena's next use, as with DecodeChunkScratch.
func DecodeChunkPartial(stream []byte, dims grid.Dims, fraction float64, s *Scratch) ([]float64, error) {
	if !(fraction > 0 && fraction <= 1) {
		return nil, fmt.Errorf("codec: fraction must be in (0, 1], got %g", fraction)
	}
	if s == nil {
		s = &Scratch{}
	}
	h, body, speckBytes, err := openChunk(stream, dims, s)
	if err != nil {
		return nil, err
	}
	useBits := uint64(float64(float64(h.speckBits) * fraction)) // no fused product - 2^63 in the conversion
	coeffs := speck.DecodeScratch(body[:speckBytes], useBits, dims, h.q, int(h.planes), &s.speck)
	s.planFor(dims).InverseScratch(coeffs, &s.wav)
	if fraction == 1 && h.mode == ModePWE && h.outlierBits > 0 {
		obytes := body[speckBytes:]
		if h.outlierBits > uint64(len(obytes))*8 {
			return nil, fmt.Errorf("%w: outlier stream truncated", ErrCorrupt)
		}
		outlier.ApplyScratch(coeffs, obytes, h.outlierBits, h.tol, int(h.opasses), &s.outl)
	}
	return coeffs, nil
}

// DecodeChunkLowRes reconstructs a coarsened version of a chunk by
// leaving the finest drop wavelet levels folded: the self-similar
// hierarchy of the wavelet decomposition makes each coarsened level
// resemble the full-resolution data (paper Section VII, multi-level
// reconstruction). The returned slice has the extent of the level-drop
// approximation band, rescaled to data magnitude. drop = 0 is a full
// decode (without outlier corrections). Temporaries come from the arena s
// (nil means fresh buffers); the returned slice is always freshly
// allocated.
func DecodeChunkLowRes(stream []byte, dims grid.Dims, drop int, s *Scratch) ([]float64, grid.Dims, error) {
	if drop < 0 {
		return nil, grid.Dims{}, fmt.Errorf("codec: negative drop %d", drop)
	}
	if s == nil {
		s = &Scratch{}
	}
	h, body, speckBytes, err := openChunk(stream, dims, s)
	if err != nil {
		return nil, grid.Dims{}, err
	}
	coeffs := speck.DecodeScratch(body[:speckBytes], h.speckBits, dims, h.q, int(h.planes), &s.speck)
	plan := s.planFor(dims)
	if drop > plan.NumLevels() {
		drop = plan.NumLevels()
	}
	low := plan.InverseToLevelScratch(coeffs, drop, &s.wav)
	scale := plan.LevelScale(drop)
	out := make([]float64, low.Len())
	for z := 0; z < low.NZ; z++ {
		for y := 0; y < low.NY; y++ {
			srcOff := dims.Index(0, y, z)
			dstOff := low.Index(0, y, z)
			for x := 0; x < low.NX; x++ {
				out[dstOff+x] = coeffs[srcOff+x] / scale
			}
		}
	}
	return out, low, nil
}

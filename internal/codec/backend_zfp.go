package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sperr/internal/grid"
	"sperr/internal/zfp"
)

// zfpBackend adapts internal/zfp (fixed-accuracy mode) to the Backend
// interface. The zfp stream format is unchanged; its header is raw (not
// lossless-wrapped), so Describe is a plain byte read.
type zfpBackend struct{}

// zfpHeaderLen is the raw fixed prefix: three extents, mode byte, param.
const zfpHeaderLen = 12 + 1 + 8

func (zfpBackend) ID() CodecID { return CodecZFP }

func (zfpBackend) Name() string { return "zfp" }

func (zfpBackend) Validate(p Params) error { return baselineValidate("zfp", p) }

func (zfpBackend) Encode(data []float64, dims grid.Dims, p Params, _ *Scratch) ([]byte, *Stats, error) {
	if len(data) != dims.Len() {
		return nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if err := baselineValidate("zfp", p); err != nil {
		return nil, nil, err
	}
	if err := checkChunk(data, p); err != nil {
		return nil, nil, err
	}
	stream, err := zfp.Compress(data, dims, zfp.Params{Mode: zfp.ModeFixedAccuracy, Tol: p.Tol})
	if err != nil {
		return nil, nil, err
	}
	return stream, baselineStats(CodecZFP, len(data), len(stream)), nil
}

func (b zfpBackend) Decode(stream []byte, dims grid.Dims, _ *Scratch) ([]float64, error) {
	meta, err := b.Describe(stream)
	if err != nil {
		return nil, err
	}
	if meta.Points != dims.Len() {
		return nil, fmt.Errorf("%w: zfp stream codes %d points, decoding %d",
			ErrCorrupt, meta.Points, dims.Len())
	}
	data, got, err := zfp.Decompress(stream)
	if err != nil {
		return nil, fmt.Errorf("%w: zfp: %v", ErrCorrupt, err)
	}
	if got != dims {
		return nil, fmt.Errorf("%w: zfp stream dims %v, decoding %v", ErrCorrupt, got, dims)
	}
	return data, nil
}

func (zfpBackend) Describe(stream []byte) (*StreamMeta, error) {
	if len(stream) < zfpHeaderLen {
		return nil, fmt.Errorf("%w: zfp: short header (%d bytes)", ErrCorrupt, len(stream))
	}
	dims := wireDims(stream)
	points, ok := safePoints(dims)
	if !ok {
		return nil, fmt.Errorf("%w: zfp: invalid dims %v", ErrCorrupt, dims)
	}
	mode := stream[12]
	if mode > 1 {
		return nil, fmt.Errorf("%w: zfp: unknown mode %d", ErrCorrupt, mode)
	}
	par := math.Float64frombits(binary.LittleEndian.Uint64(stream[13:]))
	meta := &StreamMeta{Codec: CodecZFP, Points: points}
	if mode == byte(zfp.ModeFixedAccuracy) {
		if !(par > 0) || math.IsInf(par, 0) {
			return nil, fmt.Errorf("%w: zfp: invalid tolerance %g", ErrCorrupt, par)
		}
		meta.Mode = ModePWE
		meta.Tol = par
	} else {
		meta.Mode = ModeBPP
	}
	return meta, nil
}

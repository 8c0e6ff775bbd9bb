package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/mgard"
)

// mgardBackend adapts internal/mgard to the Backend interface. The mgard
// stream format is unchanged; this file only frames it.
type mgardBackend struct{}

// mgardHeaderLen is the fixed prefix of the (lossless-wrapped) mgard
// stream: tolerance, three extents.
const mgardHeaderLen = 8 + 12

func (mgardBackend) ID() CodecID { return CodecMGARD }

func (mgardBackend) Name() string { return "mgard" }

func (mgardBackend) Validate(p Params) error { return baselineValidate("mgard", p) }

func (mgardBackend) Encode(data []float64, dims grid.Dims, p Params, _ *Scratch) ([]byte, *Stats, error) {
	if len(data) != dims.Len() {
		return nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if err := baselineValidate("mgard", p); err != nil {
		return nil, nil, err
	}
	if err := checkFinite(data); err != nil {
		return nil, nil, err
	}
	stream, err := mgard.Compress(data, dims, mgard.Params{Tol: p.Tol})
	if err != nil {
		return nil, nil, err
	}
	return stream, baselineStats(CodecMGARD, len(data), len(stream)), nil
}

func (b mgardBackend) Decode(stream []byte, dims grid.Dims, _ *Scratch) ([]float64, error) {
	meta, err := b.Describe(stream)
	if err != nil {
		return nil, err
	}
	if meta.Points != dims.Len() {
		return nil, fmt.Errorf("%w: mgard stream codes %d points, decoding %d",
			ErrCorrupt, meta.Points, dims.Len())
	}
	data, got, err := mgard.Decompress(stream)
	if err != nil {
		return nil, fmt.Errorf("%w: mgard: %v", ErrCorrupt, err)
	}
	if got != dims {
		return nil, fmt.Errorf("%w: mgard stream dims %v, decoding %v", ErrCorrupt, got, dims)
	}
	return data, nil
}

func (mgardBackend) Describe(stream []byte) (*StreamMeta, error) {
	hdr, err := lossless.DecompressPrefix(stream, mgardHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("%w: mgard: %v", ErrCorrupt, err)
	}
	if len(hdr) < mgardHeaderLen {
		return nil, fmt.Errorf("%w: mgard: short header (%d bytes)", ErrCorrupt, len(hdr))
	}
	tol := math.Float64frombits(binary.LittleEndian.Uint64(hdr[0:]))
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("%w: mgard: invalid tolerance %g", ErrCorrupt, tol)
	}
	dims := wireDims(hdr[8:])
	points, ok := safePoints(dims)
	if !ok {
		return nil, fmt.Errorf("%w: mgard: invalid dims %v", ErrCorrupt, dims)
	}
	return &StreamMeta{Codec: CodecMGARD, Mode: ModePWE, Tol: tol, Points: points}, nil
}

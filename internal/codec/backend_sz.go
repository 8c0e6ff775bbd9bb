package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/sz"
)

// szBackend adapts internal/sz (interpolation predictor) to the Backend
// interface. The sz stream format is unchanged; this file only frames it.
type szBackend struct{}

// szHeaderLen is the fixed prefix of the (lossless-wrapped) sz stream:
// predictor byte, tolerance, three extents.
const szHeaderLen = 1 + 8 + 12

func (szBackend) ID() CodecID { return CodecSZ }

func (szBackend) Name() string { return "sz" }

func (szBackend) Validate(p Params) error { return baselineValidate("sz", p) }

func (szBackend) Encode(data []float64, dims grid.Dims, p Params, _ *Scratch) ([]byte, *Stats, error) {
	if len(data) != dims.Len() {
		return nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if err := baselineValidate("sz", p); err != nil {
		return nil, nil, err
	}
	if err := checkChunk(data, p); err != nil {
		return nil, nil, err
	}
	stream, err := sz.Compress(data, dims, sz.Params{Tol: p.Tol})
	if err != nil {
		return nil, nil, err
	}
	return stream, baselineStats(CodecSZ, len(data), len(stream)), nil
}

func (b szBackend) Decode(stream []byte, dims grid.Dims, _ *Scratch) ([]float64, error) {
	// Header check first: a stream coding different geometry must fail
	// before the full inflate and its decode-sized allocations.
	meta, err := b.Describe(stream)
	if err != nil {
		return nil, err
	}
	if meta.Points != dims.Len() {
		return nil, fmt.Errorf("%w: sz stream codes %d points, decoding %d",
			ErrCorrupt, meta.Points, dims.Len())
	}
	data, got, err := sz.Decompress(stream)
	if err != nil {
		return nil, fmt.Errorf("%w: sz: %v", ErrCorrupt, err)
	}
	if got != dims {
		return nil, fmt.Errorf("%w: sz stream dims %v, decoding %v", ErrCorrupt, got, dims)
	}
	return data, nil
}

func (szBackend) Describe(stream []byte) (*StreamMeta, error) {
	hdr, err := lossless.DecompressPrefix(stream, szHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("%w: sz: %v", ErrCorrupt, err)
	}
	if len(hdr) < szHeaderLen {
		return nil, fmt.Errorf("%w: sz: short header (%d bytes)", ErrCorrupt, len(hdr))
	}
	if hdr[0] > 1 {
		return nil, fmt.Errorf("%w: sz: unknown predictor %d", ErrCorrupt, hdr[0])
	}
	tol := math.Float64frombits(binary.LittleEndian.Uint64(hdr[1:]))
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("%w: sz: invalid tolerance %g", ErrCorrupt, tol)
	}
	dims := wireDims(hdr[9:])
	points, ok := safePoints(dims)
	if !ok {
		return nil, fmt.Errorf("%w: sz: invalid dims %v", ErrCorrupt, dims)
	}
	return &StreamMeta{Codec: CodecSZ, Mode: ModePWE, Tol: tol, Points: points}, nil
}

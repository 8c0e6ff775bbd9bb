package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"sperr/internal/grid"
	"sperr/internal/tthresh"
)

// tthreshBackend adapts internal/tthresh to the Backend interface.
// TTHRESH targets an average error and has no point-wise mode (the paper
// excludes it from PWE comparisons for that reason), so the backend wraps
// the unchanged tthresh stream in a correction envelope: the encoder
// drives tthresh at a PSNR derived from the tolerance, decodes its own
// output, and stores the original value verbatim for every point whose
// error exceeds Tol. Decoding applies the stored values on top of the
// tthresh reconstruction, restoring the PWE contract exactly.
//
// Envelope layout (raw bytes; the inner stream is already deflated):
//
//	tol      f64   point-wise tolerance
//	npoints  u32   sample count (frame-level self-check)
//	ncorr    u32   number of corrections
//	innerLen u32   length of the embedded tthresh stream
//	inner    [innerLen]byte
//	corr     ncorr x { pos u32, value f64 }
type tthreshBackend struct{}

// tthreshEnvelopeLen is the envelope's fixed prefix.
const tthreshEnvelopeLen = 8 + 4 + 4 + 4

// tthreshCorrLen is the wire size of one correction.
const tthreshCorrLen = 4 + 8

func (tthreshBackend) ID() CodecID { return CodecTTHRESH }

func (tthreshBackend) Name() string { return "tthresh" }

func (tthreshBackend) Validate(p Params) error { return baselineValidate("tthresh", p) }

func (tthreshBackend) Encode(data []float64, dims grid.Dims, p Params, _ *Scratch) ([]byte, *Stats, error) {
	if len(data) != dims.Len() {
		return nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if err := baselineValidate("tthresh", p); err != nil {
		return nil, nil, err
	}
	if err := checkChunk(data, p); err != nil {
		return nil, nil, err
	}
	if int64(len(data)) > int64(^uint32(0)) {
		return nil, nil, fmt.Errorf("codec: tthresh envelope limited to 2^32-1 points, got %d", len(data))
	}
	// Aim the average-error coder a factor below the point-wise bound so
	// most points land inside it and the envelope stays small.
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if rng == 0 {
		rng = 1
	}
	psnr := 20 * math.Log10(3*rng/p.Tol)
	if psnr < 1 {
		psnr = 1
	}
	if psnr > 400 {
		psnr = 400
	}
	inner, err := tthresh.Compress(data, dims, tthresh.Params{TargetPSNR: psnr})
	if err != nil {
		return nil, nil, err
	}
	dec, _, err := tthresh.Decompress(inner)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: tthresh self-decode failed: %v", err)
	}
	// A sample tthresh reconstructs as NaN (its float64 arithmetic
	// overflows on magnitudes near MaxFloat64) compares false against any
	// bound, so the test is written to correct it too.
	var ncorr int
	for i := range data {
		if !(math.Abs(dec[i]-data[i]) <= p.Tol) {
			ncorr++
		}
	}
	out := make([]byte, 0, tthreshEnvelopeLen+len(inner)+ncorr*tthreshCorrLen)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Tol))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(ncorr))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(inner)))
	out = append(out, inner...)
	for i := range data {
		if !(math.Abs(dec[i]-data[i]) <= p.Tol) {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(data[i]))
		}
	}
	st := baselineStats(CodecTTHRESH, len(data), len(out))
	st.NumOutliers = ncorr
	return out, st, nil
}

func (b tthreshBackend) Decode(stream []byte, dims grid.Dims, _ *Scratch) ([]float64, error) {
	meta, err := b.Describe(stream)
	if err != nil {
		return nil, err
	}
	if meta.Points != dims.Len() {
		return nil, fmt.Errorf("%w: tthresh stream codes %d points, decoding %d",
			ErrCorrupt, meta.Points, dims.Len())
	}
	ncorr := int(binary.LittleEndian.Uint32(stream[12:]))
	innerLen := int(binary.LittleEndian.Uint32(stream[16:]))
	inner := stream[tthreshEnvelopeLen : tthreshEnvelopeLen+innerLen]
	data, got, err := tthresh.Decompress(inner)
	if err != nil {
		return nil, fmt.Errorf("%w: tthresh: %v", ErrCorrupt, err)
	}
	if got != dims {
		return nil, fmt.Errorf("%w: tthresh stream dims %v, decoding %v", ErrCorrupt, got, dims)
	}
	corr := stream[tthreshEnvelopeLen+innerLen:]
	for i := 0; i < ncorr; i++ {
		pos := binary.LittleEndian.Uint32(corr[i*tthreshCorrLen:])
		if int(pos) >= len(data) {
			return nil, fmt.Errorf("%w: tthresh correction %d out of range (%d points)",
				ErrCorrupt, pos, len(data))
		}
		data[pos] = math.Float64frombits(binary.LittleEndian.Uint64(corr[i*tthreshCorrLen+4:]))
	}
	return data, nil
}

func (tthreshBackend) Describe(stream []byte) (*StreamMeta, error) {
	if len(stream) < tthreshEnvelopeLen {
		return nil, fmt.Errorf("%w: tthresh: short envelope (%d bytes)", ErrCorrupt, len(stream))
	}
	tol := math.Float64frombits(binary.LittleEndian.Uint64(stream[0:]))
	if !(tol > 0) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("%w: tthresh: invalid tolerance %g", ErrCorrupt, tol)
	}
	npoints := binary.LittleEndian.Uint32(stream[8:])
	ncorr := binary.LittleEndian.Uint32(stream[12:])
	innerLen := binary.LittleEndian.Uint32(stream[16:])
	if npoints == 0 || ncorr > npoints {
		return nil, fmt.Errorf("%w: tthresh: %d corrections for %d points", ErrCorrupt, ncorr, npoints)
	}
	// The envelope is self-delimiting: its declared parts must tile the
	// stream exactly.
	want := uint64(tthreshEnvelopeLen) + uint64(innerLen) + uint64(ncorr)*tthreshCorrLen
	if want != uint64(len(stream)) {
		return nil, fmt.Errorf("%w: tthresh: envelope declares %d bytes, have %d",
			ErrCorrupt, want, len(stream))
	}
	return &StreamMeta{Codec: CodecTTHRESH, Mode: ModePWE, Tol: tol, Points: int(npoints)}, nil
}

// Package codec implements the single-chunk SPERR pipeline (paper
// Sections III-V): forward CDF 9/7 transform, SPECK coding of the
// coefficients, outlier location (inverse transform + comparison against
// the original), outlier coding, and a lossless back end over the
// concatenated bitstreams.
//
// Two termination modes are supported, mirroring the paper:
//
//   - ModePWE: quality-bounded. SPECK runs to its finest bitplane with base
//     step q = QFactor * Tol (default 1.5, Section IV-D), then every point
//     whose reconstruction error exceeds Tol is corrected through the
//     outlier coder. The decoded chunk satisfies max |z - x| <= Tol.
//   - ModeBPP: size-bounded. SPECK's embedded stream is truncated at the
//     requested bits-per-point; no outlier stage (no error guarantee).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/outlier"
	"sperr/internal/speck"
)

// Mode selects the termination criterion.
type Mode uint8

const (
	// ModePWE bounds the maximum point-wise error by Params.Tol.
	ModePWE Mode = iota
	// ModeBPP bounds the output size by Params.BitsPerPoint.
	ModeBPP
	// ModeRMSE targets an average error: the embedded SPECK stream is
	// truncated at the first plane boundary whose coefficient-domain
	// error estimate meets Params.TargetRMSE. This realizes the paper's
	// Section VII observation that the near-orthogonality of the scaled
	// CDF 9/7 basis makes average-error targeting feasible without extra
	// inverse transforms. No point-wise guarantee.
	ModeRMSE
	// ModeAdaptive bounds the point-wise error by Params.Tol like ModePWE,
	// but picks the cheapest codec backend per chunk (trial-scored on a
	// sampled sub-block; see EncodeAdaptive). Requires container v3: each
	// chunk carries a one-byte codec tag. Never written into a backend's
	// own chunk header — adaptive chunks are coded under ModePWE by the
	// winning backend.
	ModeAdaptive
)

// DefaultQFactor is the coefficient-coding quantization step expressed in
// units of the PWE tolerance; the paper settles on q = 1.5t (Section IV-D).
const DefaultQFactor = 1.5

// Params controls one chunk compression.
type Params struct {
	Mode Mode

	// Tol is the point-wise error tolerance (ModePWE).
	Tol float64
	// QFactor sets q = QFactor*Tol; zero means DefaultQFactor, and a
	// negative value is refused. Figures 2-4 of the paper sweep this knob.
	QFactor float64

	// BitsPerPoint is the target rate (ModeBPP).
	BitsPerPoint float64

	// TargetRMSE is the requested root-mean-square error (ModeRMSE).
	TargetRMSE float64

	// Codec pins every chunk to one backend (see backend.go). The zero
	// value is CodecSPERR, the pipeline this package implements; any other
	// backend requires ModePWE and a v3 container. Ignored under
	// ModeAdaptive, which picks the backend per chunk.
	Codec CodecID
}

// Validate checks that the mode and its controlling knob are coherent,
// so pipeline front-ends can reject bad parameters before any samples
// flow. EncodeChunkScratch performs the same checks per chunk. Every knob
// must be finite, and so must the PWE step q: a stream whose header holds
// a non-finite step or tolerance is one parseHeader refuses. QFactor must
// not be negative: zero is the only value that means the default.
func (p Params) Validate() error {
	for _, k := range [...]struct {
		name string
		v    float64
	}{{"Tol", p.Tol}, {"TargetRMSE", p.TargetRMSE}, {"BitsPerPoint", p.BitsPerPoint}, {"QFactor", p.QFactor}} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("codec: %s is %g; it must be finite", k.name, k.v)
		}
	}
	if p.QFactor < 0 {
		return fmt.Errorf("codec: QFactor is %g; it must be positive, or zero for the default %g", p.QFactor, DefaultQFactor)
	}
	if (p.Mode == ModePWE || p.Mode == ModeAdaptive) && math.IsInf(p.q(), 0) {
		return fmt.Errorf("codec: the quantization step for Tol %g overflows; lower Tol or QFactor", p.Tol)
	}
	switch p.Mode {
	case ModePWE:
		if !(p.Tol > 0) {
			return errors.New("codec: ModePWE requires Tol > 0")
		}
	case ModeBPP:
		if !(p.BitsPerPoint > 0) {
			return errors.New("codec: ModeBPP requires BitsPerPoint > 0")
		}
	case ModeRMSE:
		if !(p.TargetRMSE > 0) {
			return errors.New("codec: ModeRMSE requires TargetRMSE > 0")
		}
	case ModeAdaptive:
		if !(p.Tol > 0) {
			return errors.New("codec: ModeAdaptive requires Tol > 0")
		}
		if p.Codec != CodecSPERR {
			return errors.New("codec: ModeAdaptive picks the codec per chunk; leave Codec unset")
		}
	default:
		return fmt.Errorf("codec: unknown mode %d", p.Mode)
	}
	if p.Codec != CodecSPERR {
		b, ok := Lookup(p.Codec)
		if !ok {
			return fmt.Errorf("codec: unknown codec id %d", p.Codec)
		}
		return b.Validate(p)
	}
	return nil
}

func (p Params) q() float64 {
	qf := p.QFactor
	if qf == 0 {
		qf = DefaultQFactor
	}
	return qf * p.Tol
}

// Stats reports per-stage measurements used by the paper's evaluation
// (Figures 2, 4, 6): bit costs of the two coders, outlier counts, and wall
// time of the four pipeline stages.
type Stats struct {
	SpeckBits   uint64
	OutlierBits uint64
	HeaderBits  uint64
	TotalBytes  int // final compressed size, including header and lossless wrapping

	// Codec identifies the backend that produced the chunk (CodecSPERR for
	// the pipeline above; the per-stage fields below are SPERR-specific).
	Codec CodecID

	NumOutliers int
	NumPoints   int

	TransformTime time.Duration // stage 1: forward wavelet transform
	SpeckTime     time.Duration // stage 2: SPECK coding
	LocateTime    time.Duration // stage 3: reconstruction + comparison
	OutlierTime   time.Duration // stage 4: outlier coding
}

// BPP returns the achieved total bitrate in bits per point.
func (s *Stats) BPP() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return float64(s.TotalBytes*8) / float64(s.NumPoints)
}

// OutlierPercent returns outliers as a percentage of all points.
func (s *Stats) OutlierPercent() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return 100 * float64(s.NumOutliers) / float64(s.NumPoints)
}

// BitsPerOutlier returns the amortized outlier coding cost (Figure 4).
func (s *Stats) BitsPerOutlier() float64 {
	if s.NumOutliers == 0 {
		return 0
	}
	return float64(s.OutlierBits) / float64(s.NumOutliers)
}

// header is the fixed-size per-chunk header. The paper's implementation
// uses a fixed 20-byte header; ours carries slightly more (exact bit
// lengths of both embedded streams) and is 40 bytes. Its cost is included
// in every reported measurement, as in the paper (Section V-A).
const headerSize = 40

var (
	// ErrCorrupt reports an undecodable chunk stream.
	ErrCorrupt = errors.New("codec: corrupt chunk stream")
	// ErrDims reports a data/dims mismatch, or a chunk above MaxChunkPoints.
	ErrDims = errors.New("codec: data length does not match dims")
	// ErrToleranceBelowResolution reports a point-wise tolerance below the
	// float64 spacing (ulp) of the chunk's largest magnitude. No backend
	// can place a correction that finely, so encode refuses rather than
	// ship samples that miss the bound; such a tolerance asks for lossless
	// coding, which no backend here promises.
	ErrToleranceBelowResolution = errors.New("codec: tolerance below the data's float64 resolution")
)

// MaxChunkPoints is the largest chunk a SPERR encode takes: the SPECK
// encoder's octree limit, 2^27 samples (a 512^3 chunk).
const MaxChunkPoints = 1 << 27

type header struct {
	mode        Mode
	planes      uint8
	opasses     uint8
	q           float64
	tol         float64
	speckBits   uint64
	outlierBits uint64
	// points is the chunk's sample count, a frame-level self-check added
	// with container v2 (previously reserved bytes). Zero means "not
	// recorded" — streams written before the field decode unchanged.
	points uint32
}

// appendTo appends the marshalled 40-byte header to dst.
func (h *header) appendTo(dst []byte) []byte {
	var b [headerSize]byte
	b[0] = byte(h.mode)
	b[1] = h.planes
	b[2] = h.opasses
	// b[3] is the retired bit-layer byte, always 0 (see parseHeader).
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(h.q))
	binary.LittleEndian.PutUint64(b[12:], math.Float64bits(h.tol))
	binary.LittleEndian.PutUint64(b[20:], h.speckBits)
	binary.LittleEndian.PutUint64(b[28:], h.outlierBits)
	binary.LittleEndian.PutUint32(b[36:], h.points)
	return append(dst, b[:]...)
}

func parseHeader(b []byte) (*header, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	}
	h := &header{
		mode:        Mode(b[0]),
		planes:      b[1],
		opasses:     b[2],
		q:           math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		tol:         math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
		speckBits:   binary.LittleEndian.Uint64(b[20:]),
		outlierBits: binary.LittleEndian.Uint64(b[28:]),
		points:      binary.LittleEndian.Uint32(b[36:]),
	}
	if h.mode != ModePWE && h.mode != ModeBPP && h.mode != ModeRMSE {
		return nil, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, h.mode)
	}
	// Byte 3 named the SPECK bit layer: 0 for raw bits, 1 for the retired
	// arithmetic-coded layer (SPECK-AC). Only raw streams decode now, so
	// anything else fails loudly rather than being misread as raw bits.
	if b[3] != 0 {
		return nil, fmt.Errorf("%w: bit-layer byte %d (SPECK-AC streams are no longer decodable)", ErrCorrupt, b[3])
	}
	if !(h.q > 0) || math.IsInf(h.q, 0) {
		return nil, fmt.Errorf("%w: invalid quantization step %g", ErrCorrupt, h.q)
	}
	if h.mode == ModePWE && (!(h.tol > 0) || math.IsInf(h.tol, 0)) {
		return nil, fmt.Errorf("%w: invalid tolerance %g", ErrCorrupt, h.tol)
	}
	// The SPECK decoder reads at most 64 planes. Only encodes before the
	// 52-plane clamp wrote more, and only at a step below the float64
	// resolution of the data (DESIGN.md 4h), so such a chunk is refused.
	if h.planes > 64 {
		return nil, fmt.Errorf("%w: %d SPECK bit planes, more than the 64 a decoder reads; only a tolerance below the data's float64 resolution (the ulp of its largest magnitude) writes such a stream", ErrCorrupt, h.planes)
	}
	if h.planes > 0 && math.IsInf(math.Ldexp(h.q, int(h.planes)-1), 1) {
		return nil, fmt.Errorf("%w: step %g over %d bit planes overflows float64", ErrCorrupt, h.q, h.planes)
	}
	return h, nil
}

// chunkPoints is the header's frame-level sample count; zero when the
// chunk is too large for the field (never at the paper's 256^3 tiling).
func chunkPoints(dims grid.Dims) uint32 {
	n := dims.Len()
	if n < 0 || int64(n) > int64(^uint32(0)) {
		return 0
	}
	return uint32(n)
}

// checkPoints cross-checks the header's recorded sample count against the
// extent the caller is decoding with. Zero (pre-v2 streams) passes.
func (h *header) checkPoints(dims grid.Dims) error {
	if h.points != 0 && int(h.points) != dims.Len() {
		return fmt.Errorf("%w: header records %d points, decoding %d",
			ErrCorrupt, h.points, dims.Len())
	}
	return nil
}

// EncodeChunk compresses one chunk of data (row-major, extent dims) with
// fresh buffers.
func EncodeChunk(data []float64, dims grid.Dims, p Params) ([]byte, *Stats, error) {
	return EncodeChunkScratch(data, dims, p, nil)
}

// EncodeChunkScratch is EncodeChunk drawing every pipeline temporary from
// the arena s (nil means fresh buffers). The returned stream is freshly
// allocated and caller-owned either way; output is byte-identical to
// EncodeChunk's.
func EncodeChunkScratch(data []float64, dims grid.Dims, p Params, s *Scratch) ([]byte, *Stats, error) {
	if len(data) != dims.Len() {
		return nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if len(data) > MaxChunkPoints {
		return nil, nil, fmt.Errorf("%w: %v holds %d samples, above the %d-sample chunk limit", ErrDims, dims, len(data), MaxChunkPoints)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Mode == ModeAdaptive || p.Codec != CodecSPERR {
		return nil, nil, errors.New("codec: EncodeChunkScratch codes SPERR streams only; use EncodeAdaptive or the backend registry")
	}
	if err := checkChunk(data, p); err != nil {
		return nil, nil, err
	}
	if s == nil {
		s = &Scratch{}
	}
	st := &Stats{NumPoints: dims.Len()}

	// Stage 1: forward wavelet transform.
	t0 := time.Now()
	coeffs := s.coeffs(len(data))
	copy(coeffs, data)
	plan := s.planFor(dims)
	plan.ForwardScratch(coeffs, &s.wav)
	st.TransformTime = time.Since(t0)

	// Stage 2: SPECK coding.
	t0 = time.Now()
	var q float64
	var maxBits uint64
	switch p.Mode {
	case ModePWE:
		q = p.q()
	case ModeRMSE:
		// Quantization floor well below the target so a plane boundary
		// lands near it; the stream is truncated there after encoding.
		q = p.TargetRMSE / 8
	default:
		// Size-bounded mode: pick q far below the coefficient scale so the
		// embedded stream can refine as deep as the budget allows.
		maxMag := 0.0
		for _, c := range coeffs {
			if a := math.Abs(c); a > maxMag {
				maxMag = a
			}
		}
		if maxMag == 0 || math.IsInf(maxMag, 1) {
			maxMag = 1 // nothing to code, or an overflowed transform SPECK skips
		}
		q = maxMag * math.Exp2(-48)
		budget := float64(p.BitsPerPoint * float64(dims.Len())) // no fused budget - overhead
		overhead := float64(headerSize*8) + 8
		if budget > overhead {
			maxBits = uint64(budget - overhead)
		} else {
			maxBits = 1
		}
	}
	// SPECK may raise q to stay within float64 resolution (at most 52
	// planes); the header records the step it used, and under ModePWE the
	// outlier stage absorbs the coarser coefficients.
	sres := speck.EncodeScratch(coeffs, dims, q, maxBits, &s.speck)
	q = sres.Q
	if p.Mode == ModeRMSE {
		// Truncate the embedded stream at the first plane boundary whose
		// coefficient-domain error estimate meets the target (a 0.9
		// margin absorbs the few-percent non-orthogonality of the scaled
		// CDF 9/7 basis).
		want := 0.9 * p.TargetRMSE
		limit := want * want * float64(dims.Len())
		for i, err2 := range speck.PlaneErr2Scratch(coeffs, &s.speck) {
			if err2 <= limit {
				sres.Bits = sres.PlaneBits[i]
				sres.Stream = sres.Stream[:(sres.Bits+7)/8]
				break
			}
		}
	}
	st.SpeckBits = sres.Bits
	st.SpeckTime = time.Since(t0)

	h := &header{
		mode:      p.Mode,
		planes:    uint8(sres.NumPlanes),
		q:         q,
		tol:       p.Tol,
		speckBits: sres.Bits,
		points:    chunkPoints(dims),
	}
	var ores *outlier.Result

	if p.Mode == ModePWE {
		// Stage 3: locate outliers — reconstruct exactly what the decoder
		// will see (SPECK decode + inverse transform) and compare.
		t0 = time.Now()
		// The decoder's reconstruction, synthesized bit-identically from
		// the quantized magnitudes without the decode traversal. An
		// untruncated encode always replays.
		recon, ok := speck.ReplayScratch(dims, q, &s.speck)
		if !ok {
			return nil, nil, errors.New("codec: SPECK declined to replay its own untruncated encode")
		}
		plan.InverseScratch(recon, &s.wav)
		outs := s.scanOutliers(data, recon, p.Tol)
		st.NumOutliers = len(outs)
		st.LocateTime = time.Since(t0)

		// Stage 4: outlier coding.
		t0 = time.Now()
		ores = outlier.EncodeScratch(dims.Len(), p.Tol, outs, &s.outl)
		// The header stores the pass count in one byte; a wrapped count
		// would decode to garbage without an error.
		if ores.NumPasses > math.MaxUint8 {
			return nil, nil, fmt.Errorf("codec: %d outlier passes exceed the chunk header's limit of %d; the tolerance is too fine for the data's range", ores.NumPasses, math.MaxUint8)
		}
		if !(sres.MaxMag <= math.MaxFloat64) {
			// The forward transform overflowed, so SPECK coded nothing and
			// the outlier coder carries whole samples, rounding once per
			// pass at their magnitude: check the decoder's result instead
			// of trusting the bound.
			outlier.ApplyScratch(recon, ores.Stream, ores.Bits, p.Tol, ores.NumPasses, &outlier.Scratch{})
			for i, x := range data {
				if !(math.Abs(recon[i]-x) <= p.Tol) {
					return nil, nil, fmt.Errorf("%w: tolerance %g misses sample %g, whose magnitude overflows the wavelet transform and leaves only the outlier coder's float64 precision",
						ErrToleranceBelowResolution, p.Tol, x)
				}
			}
		}
		st.OutlierBits = ores.Bits
		st.OutlierTime = time.Since(t0)
		h.opasses = uint8(ores.NumPasses)
		h.outlierBits = ores.Bits
	}

	// Assemble: header | speck stream | outlier stream, then lossless.
	payload := h.appendTo(s.payload[:0])
	payload = append(payload, sres.Stream...)
	if ores != nil {
		payload = append(payload, ores.Stream...)
	}
	s.payload = payload
	st.HeaderBits = headerSize * 8
	out := lossless.Compress(payload)
	st.TotalBytes = len(out)
	return out, st, nil
}

// DecodeChunk reconstructs a chunk compressed by EncodeChunk. dims must
// match the encoding call. The returned slice is caller-owned.
func DecodeChunk(stream []byte, dims grid.Dims) ([]float64, error) {
	return DecodeChunkScratch(stream, dims, nil)
}

// DecodeChunkScratch is DecodeChunk drawing every pipeline temporary from
// the arena s (nil means fresh buffers). With a non-nil scratch the
// returned slice aliases the arena and is valid only until its next use —
// copy out (e.g. into the destination volume) before reusing s.
func DecodeChunkScratch(stream []byte, dims grid.Dims, s *Scratch) ([]float64, error) {
	return decodeChunk(stream, dims, 1, s)
}

// decodeChunk is the one chunk decode behind DecodeChunkScratch and
// DecodeChunkPartial: open the stream, SPECK-decode the first fraction of
// its coded bits, invert the transform and, on a full PWE decode, apply
// the outlier corrections (they are relative to the complete SPECK
// decode).
func decodeChunk(stream []byte, dims grid.Dims, fraction float64, s *Scratch) ([]float64, error) {
	if s == nil {
		s = &Scratch{}
	}
	h, body, speckBytes, err := openChunk(stream, dims, s)
	if err != nil {
		return nil, err
	}
	useBits := h.speckBits
	if fraction < 1 {
		useBits = uint64(float64(float64(h.speckBits) * fraction)) // no fused product - 2^63 in the conversion
	}
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

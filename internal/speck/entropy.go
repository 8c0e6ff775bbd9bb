package speck

import (
	"sperr/internal/arith"
	"sperr/internal/bits"
	"sperr/internal/grid"
)

// Bit-stream abstraction: the SPECK traversal emits decision bits through
// a sink and replays them from a source. The raw implementations write
// bits verbatim (the paper's SPERR does exactly this); the arithmetic
// implementations code each bit under a per-context adaptive probability,
// the SPECK-AC variant of Pearlman et al. Contexts separate the three bit
// populations, whose statistics differ strongly.

// Coding contexts. Set-significance bits get one context per partition
// depth bucket (their zero-probability varies systematically with set
// size); signs and refinement bits get one context each (they are
// near-random, and the adaptive coder discovers that).
const (
	numSigCtx  = 8
	ctxSign    = numSigCtx
	ctxRefine  = numSigCtx + 1
	numContext = numSigCtx + 2
)

func sigCtx(depth int) int {
	if depth >= numSigCtx {
		return numSigCtx - 1
	}
	return depth
}

type sink interface {
	put(ctx int, b bool)
	// bits returns the output size so far in bits (exact for the raw
	// sink, a byte-granular estimate for the arithmetic sink).
	bits() uint64
	// finish returns the final stream and its exact bit length.
	finish() ([]byte, uint64)
}

type source interface {
	get(ctx int) bool
	// exhausted reports that a read ran past the available input (raw
	// source only; the arithmetic source synthesizes zero bytes instead,
	// as truncated AC streams are not meaningfully decodable anyway).
	exhausted() bool
}

// rawSink writes bits verbatim.
type rawSink struct{ w *bits.Writer }

func (s *rawSink) put(_ int, b bool) { s.w.WriteBit(b) }
func (s *rawSink) bits() uint64      { return s.w.Len() }

// finish returns the writer's internal buffer without copying; it stays
// valid until the writer is Reset (scratch reuse copies it into the chunk
// payload before then).
func (s *rawSink) finish() ([]byte, uint64) {
	return s.w.Close(), s.w.Len()
}

type rawSource struct{ r *bits.Reader }

func (s *rawSource) get(_ int) bool  { return s.r.ReadBit() }
func (s *rawSource) exhausted() bool { return s.r.Exhausted() }

// acSink codes bits with the adaptive binary arithmetic coder.
type acSink struct {
	enc   *arith.Encoder
	probs [numContext]arith.Prob
	n     uint64
}

func newACSink() *acSink {
	s := &acSink{enc: arith.NewEncoder()}
	for i := range s.probs {
		s.probs[i] = arith.NewProb()
	}
	return s
}

func (s *acSink) put(ctx int, b bool) {
	s.enc.EncodeBit(&s.probs[ctx], b)
	s.n++
}

// bits reports the compressed size so far; used only for budget checks,
// which entropy mode does not support, so byte granularity is fine.
func (s *acSink) bits() uint64 { return uint64(s.enc.Len()) * 8 }

func (s *acSink) finish() ([]byte, uint64) {
	out := s.enc.Bytes()
	return out, uint64(len(out)) * 8
}

type acSource struct {
	dec   *arith.Decoder
	probs [numContext]arith.Prob
}

func newACSource(data []byte) *acSource {
	s := &acSource{dec: arith.NewDecoder(data)}
	for i := range s.probs {
		s.probs[i] = arith.NewProb()
	}
	return s
}

func (s *acSource) get(ctx int) bool { return s.dec.DecodeBit(&s.probs[ctx]) }
func (s *acSource) exhausted() bool  { return false }

// reset returns a pooled sink to its initial state.
func (s *acSink) reset() {
	s.enc.Reset()
	for i := range s.probs {
		s.probs[i] = arith.NewProb()
	}
	s.n = 0
}

// acSinkReset returns the scratch's pooled arithmetic sink, reset.
func (s *Scratch) acSinkReset() *acSink {
	if s.acs == nil {
		s.acs = newACSink()
		s.Grows++
	} else {
		s.acs.reset()
	}
	return s.acs
}

// acSourceReset returns the scratch's pooled arithmetic source,
// reinitialized over data.
func (s *Scratch) acSourceReset(data []byte) *acSource {
	if s.acsrc == nil {
		s.acsrc = newACSource(data)
		s.Grows++
		return s.acsrc
	}
	s.acsrc.dec.Reset(data)
	for i := range s.acsrc.probs {
		s.acsrc.probs[i] = arith.NewProb()
	}
	return s.acsrc
}

// EncodeEntropy is Encode with the arithmetic-coded bit layer (SPECK-AC).
// Quality-bounded mode only: entropy-coded streams are not bit-exactly
// truncatable, so there is no size-bounded variant.
func EncodeEntropy(coeffs []float64, dims grid.Dims, q float64) *Result {
	return encode(coeffs, dims, q, 0, true, nil)
}

// EncodeEntropyScratch is EncodeEntropy with pooled buffers. On the
// integer-eligible path the decision sequence is produced by the
// octree-driven traversal, so SPECK-AC encode shares the raw path's
// preprocessing; the output is byte-identical to EncodeEntropy's.
func EncodeEntropyScratch(coeffs []float64, dims grid.Dims, q float64, s *Scratch) *Result {
	return encode(coeffs, dims, q, 0, true, s)
}

// DecodeEntropy decodes a stream produced by EncodeEntropy.
func DecodeEntropy(stream []byte, dims grid.Dims, q float64, planes int) []float64 {
	return decode(stream, 0, dims, q, planes, true, nil)
}

// DecodeEntropyScratch is DecodeEntropy with pooled buffers; the returned
// slice aliases s.
func DecodeEntropyScratch(stream []byte, dims grid.Dims, q float64, planes int, s *Scratch) []float64 {
	return decode(stream, 0, dims, q, planes, true, s)
}

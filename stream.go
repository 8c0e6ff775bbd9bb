package sperr

import (
	"context"
	"errors"
	"io"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
)

// ErrCorrupt reports an undecodable container stream: bad magic, damaged
// geometry, truncated or checksum-failing frames, or a corrupted index
// footer. Test with errors.Is.
var ErrCorrupt = chunk.ErrCorrupt

// ErrToleranceBelowResolution reports a point-wise tolerance below the
// float64 spacing (ulp) of a chunk's largest magnitude: no coder can place
// a correction that finely, so compression refuses rather than return
// samples that miss the bound. The error names both numbers. Test with
// errors.Is.
var ErrToleranceBelowResolution = codec.ErrToleranceBelowResolution

// Encoder is the streaming compression engine: it accepts a volume's
// samples incrementally in row-major order (x fastest, any Write
// granularity) and writes container-v2 frames to the underlying io.Writer
// as chunks complete. Chunks compress in parallel and their frames are
// written in chunk order, so the byte stream is identical to the one-shot
// Compress functions at every worker count.
//
// Peak memory is bounded by the in-flight chunk set — one accumulation
// slab (volume XY extent x chunk Z extent; none when Write is handed
// whole slabs) plus one chunk per worker — never the volume.
//
// An Encoder is not safe for concurrent use. After Close it can be
// rearmed with Reset, reusing its buffers.
type Encoder struct {
	w    *chunk.Writer
	dims [3]int
}

func newEncoder(w io.Writer, dims [3]int, p codec.Params, opts *Options) (*Encoder, error) {
	d := grid.Dims{NX: dims[0], NY: dims[1], NZ: dims[2]}
	if !d.Valid() {
		return nil, errDims
	}
	cw, err := chunk.NewWriter(w, d, opts.chunkOpts(p))
	if err != nil {
		return nil, err
	}
	return &Encoder{w: cw, dims: dims}, nil
}

// NewEncoderPWE starts a streaming compression of a volume with extent
// dims into w, bounding every point-wise error by tol. opts may be nil.
func NewEncoderPWE(w io.Writer, dims [3]int, tol float64, opts *Options) (*Encoder, error) {
	if !(tol > 0) {
		return nil, errors.New("sperr: tolerance must be positive")
	}
	return newEncoder(w, dims, codec.Params{Mode: codec.ModePWE, Tol: tol}, opts)
}

// NewEncoderBPP starts a streaming size-bounded compression targeting
// bitsPerPoint. opts may be nil.
func NewEncoderBPP(w io.Writer, dims [3]int, bitsPerPoint float64, opts *Options) (*Encoder, error) {
	if !(bitsPerPoint > 0) {
		return nil, errors.New("sperr: bitsPerPoint must be positive")
	}
	return newEncoder(w, dims, codec.Params{Mode: codec.ModeBPP, BitsPerPoint: bitsPerPoint}, opts)
}

// NewEncoderAdaptive starts a streaming compression under the point-wise
// tolerance tol with per-chunk codec selection (the streaming twin of
// CompressAdaptive): each chunk is coded by whichever backend wins its
// trial, and the output is a container-v3 stream. opts may be nil;
// Options.Codec is ignored.
func NewEncoderAdaptive(w io.Writer, dims [3]int, tol float64, opts *Options) (*Encoder, error) {
	if !(tol > 0) {
		return nil, errors.New("sperr: tolerance must be positive")
	}
	return newEncoder(w, dims, codec.Params{Mode: codec.ModeAdaptive, Tol: tol}, opts)
}

// NewEncoderRMSE starts a streaming average-error-targeted compression.
// opts may be nil.
func NewEncoderRMSE(w io.Writer, dims [3]int, targetRMSE float64, opts *Options) (*Encoder, error) {
	if !(targetRMSE > 0) {
		return nil, errors.New("sperr: targetRMSE must be positive")
	}
	return newEncoder(w, dims, codec.Params{Mode: codec.ModeRMSE, TargetRMSE: targetRMSE}, opts)
}

// SetContext attaches a cancellation context to the Encoder: once ctx is
// done, no further chunk compression starts (those in flight finish and
// are dropped) and Write/Close return ctx's error. This is the hook a
// serving layer threads a per-request context through so a dropped
// client stops chunk encodes promptly. Call it before the first Write;
// Reset clears it.
func (e *Encoder) SetContext(ctx context.Context) { e.w.SetContext(ctx) }

// Write feeds the next samples of the volume in row-major order. The
// total across all Writes must equal the volume extent by Close time. It
// may block while chunk workers drain.
func (e *Encoder) Write(p []float64) (int, error) { return e.w.Write(p) }

// Close waits for all chunk compressions and writes the index footer.
// The stream is complete only after Close returns nil.
func (e *Encoder) Close() error { return e.w.Close() }

// Reset rearms a closed Encoder for a new volume with the same parameters,
// reusing its buffers.
func (e *Encoder) Reset(w io.Writer, dims [3]int) error {
	d := grid.Dims{NX: dims[0], NY: dims[1], NZ: dims[2]}
	if !d.Valid() {
		return errDims
	}
	if err := e.w.Reset(w, d); err != nil {
		return err
	}
	e.dims = dims
	return nil
}

// Stats returns the compression statistics; valid after a successful
// Close.
func (e *Encoder) Stats() *Stats {
	cs := e.w.Stats()
	if cs == nil {
		return nil
	}
	return statsFrom(cs)
}

// NumChunks returns the number of chunks the volume tiles into.
func (e *Encoder) NumChunks() int { return e.w.NumChunks() }

// PeakInFlightSamples reports the maximum number of chunk samples held by
// compressions in flight at any one time — the engine's bounded-memory
// witness, at most workers x chunk size.
func (e *Encoder) PeakInFlightSamples() int { return e.w.PeakInFlightSamples() }

// DecodedChunk is one decoded chunk delivered by Decoder.ForEachChunk.
type DecodedChunk struct {
	// Index is the chunk's position in container order.
	Index int
	// Origin is the chunk's anchor in the volume; Dims its extent.
	Origin, Dims [3]int
	// Data holds the chunk's samples in row-major order. It aliases a
	// decode arena that is reused once the callback returns: copy out
	// what you keep.
	Data []float64
}

// Decoder is the streaming decompression engine: it reads container
// frames sequentially from any io.Reader (formats v2 and v3), decodes
// chunks in parallel, and delivers each to a callback. Peak decoded
// data in flight is bounded by O(workers x chunk size), never the volume.
type Decoder struct {
	r *chunk.Reader
}

// NewDecoder reads the container header from r and prepares a streaming
// decode with the default (GOMAXPROCS) worker budget.
func NewDecoder(r io.Reader) (*Decoder, error) {
	cr, err := chunk.NewReader(r, 0)
	if err != nil {
		return nil, err
	}
	return &Decoder{r: cr}, nil
}

// Dims returns the volume extent declared by the container header.
func (d *Decoder) Dims() [3]int {
	v := d.r.VolumeDims()
	return [3]int{v.NX, v.NY, v.NZ}
}

// ChunkDims returns the chunk tiling bound declared by the container
// header (chunks at the high boundaries may be smaller).
func (d *Decoder) ChunkDims() [3]int {
	c := d.r.ChunkDims()
	return [3]int{c.NX, c.NY, c.NZ}
}

// NumChunks returns the number of chunks in the container.
func (d *Decoder) NumChunks() int { return d.r.NumChunks() }

// FormatVersion reports the container format version (2 or 3).
func (d *Decoder) FormatVersion() int { return d.r.Version() }

// SetWorkers adjusts the decode worker budget before ForEachChunk (<= 0
// means GOMAXPROCS): how many chunks decode concurrently, each on one
// goroutine.
func (d *Decoder) SetWorkers(n int) { d.r.SetWorkers(n) }

// SetContext attaches a cancellation context to the Decoder: once ctx is
// done, no further frame is read, no further chunk decode starts and no
// further chunk is delivered, so ForEachChunk/DecodeAll return ctx's
// error promptly. Call it before ForEachChunk.
func (d *Decoder) SetContext(ctx context.Context) { d.r.SetContext(ctx) }

// ForEachChunk streams every chunk through fn. Chunks decode in
// parallel, but fn runs on the goroutine that called ForEachChunk, one
// chunk at a time, so it needs no locking; chunk order is not
// guaranteed. An fn error stops the decode and is returned. The first
// damaged byte fails the decode with ErrCorrupt; DecompressSalvage reads
// a damaged stream. It consumes the Decoder and can be called once.
func (d *Decoder) ForEachChunk(fn func(DecodedChunk) error) error {
	return d.r.ForEach(decodedChunk(fn))
}

// ForEachChunkParallel is ForEachChunk with fn run on the decode
// goroutines, up to the worker budget at once, each as its chunk's decode
// finishes. It is for callers that put each chunk in a place of its own
// (chunks never overlap), such as a volume or a file at the chunk's
// offsets: there a copy in ForEachChunk's fn leaves a decode slot idle
// until it returns. fn must be safe for concurrent use. Once the context
// is done no further call starts; once a call fails, decodes already
// running may still call fn.
func (d *Decoder) ForEachChunkParallel(fn func(DecodedChunk) error) error {
	return d.r.ForEachParallel(decodedChunk(fn))
}

// decodedChunk adapts fn to the engine's per-chunk callback.
func decodedChunk(fn func(DecodedChunk) error) func(int, grid.Chunk, []float64) error {
	return func(i int, ch grid.Chunk, data []float64) error {
		return fn(DecodedChunk{
			Index:  i,
			Origin: [3]int{ch.X0, ch.Y0, ch.Z0},
			Dims:   [3]int{ch.Dims.NX, ch.Dims.NY, ch.Dims.NZ},
			Data:   data,
		})
	}
}

// DecodeAll streams the remaining chunks into a freshly allocated volume
// and returns it with its extent — the convenience path when the caller
// does want the whole volume in memory.
func (d *Decoder) DecodeAll() ([]float64, [3]int, error) {
	dims := d.Dims()
	vol := grid.NewVolume(d.r.VolumeDims())
	err := d.r.ForEachParallel(func(_ int, ch grid.Chunk, data []float64) error {
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		return nil
	})
	if err != nil {
		return nil, [3]int{}, err
	}
	return vol.Data, dims, nil
}

// PeakInFlightSamples reports the maximum number of decoded samples alive
// at any one time during the streaming decode — at most workers x chunk
// size. It is set when ForEachChunk, ForEachChunkParallel or DecodeAll
// returns.
func (d *Decoder) PeakInFlightSamples() int { return d.r.PeakInFlightSamples() }

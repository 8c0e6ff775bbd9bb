package chunk

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// Writer is the streaming encoder engine: it accepts a volume's samples
// incrementally in row-major order (x fastest, any Write granularity),
// compresses chunks in parallel on the package's pipe as soon as their
// samples are complete, and emits container frames to the underlying
// io.Writer in chunk-index order — out-of-order completions wait in a
// reorder map, so the byte stream is identical at every worker count.
// Close writes the index footer.
//
// Peak memory is bounded by the in-flight chunk set, not the volume: at
// most one accumulation slab (volume XY extent x chunk Z extent; none at
// all when Write is handed whole slabs) plus one chunk slab per worker.
// Frames are written, and Options.Instrument called, only on the
// goroutine that calls Write and Close; no encode starts between those
// calls.
//
// A Writer is not safe for concurrent use. After Close (or an error) it
// can be rearmed with Reset, reusing its buffers and parameters.
type Writer struct {
	layout // generation written, see writeLayout
	opts   Options
	start  time.Time

	volDims   grid.Dims
	chunkDims grid.Dims // clamped tiling actually used
	chunks    []grid.Chunk
	perSlab   int // chunks per z-slab of the tiling

	// Producer-side accumulation.
	fed     int       // samples received so far
	slabBuf []float64 // the current z-slab's samples, when Write gets less

	pipe pipe[encResult]

	// Emission, by the pipe's callback emit.
	fw      *frameWriter
	next    int // the chunk whose frame is written next
	pending map[int]encResult
	codecs  []codec.CodecID // per-chunk winners, the tagged footer's codec map
	cstats  []codec.Stats
	maxWall time.Duration // the longest chunk, Stats.MaxChunkTime
	grows   int           // arena growth over all chunks, Stats.ScratchGrows

	stats  *Stats
	closed bool
	err    error
}

// encResult is one compressed chunk, or its error, on its way to emit.
type encResult struct {
	Event
	frame []byte // the frame payload: codec tag byte when tagged, then the backend stream
	err   error
}

// emit is the Writer's pipe callback. It writes every frame whose turn has
// come, in index order, holding earlier arrivals in pending. Its error, a
// failed encode or frame write, stops the pipe for good: nothing may
// follow a frame the stream is missing or holds half of.
func (cw *Writer) emit(res encResult) error {
	if res.err != nil {
		return res.err
	}
	cw.pending[res.Index] = res
	for {
		res, ok := cw.pending[cw.next]
		if !ok {
			return nil
		}
		delete(cw.pending, cw.next)
		if err := cw.fw.frame(res.frame, frameCRC(res.frame)); err != nil {
			return err
		}
		cw.next++
		cw.codecs[res.Index] = res.Codec
		cw.cstats[res.Index] = res.Stats
		cw.maxWall = max(cw.maxWall, res.WallTime)
		cw.grows += res.ScratchGrows
		if cw.opts.Instrument != nil {
			cw.opts.Instrument(res.Event)
		}
	}
}

// NewWriter starts a streaming compression of a volume with extent
// volDims into w: it writes the container's fixed header immediately.
// Feed the samples with Write, then Close.
func NewWriter(w io.Writer, volDims grid.Dims, opts Options) (*Writer, error) {
	cw := &Writer{}
	if err := cw.init(w, volDims, opts); err != nil {
		return nil, err
	}
	return cw, nil
}

// Reset rearms a closed (or failed) Writer for a new volume with the same
// Options, reusing its accumulation buffers. It must not be called on a
// Writer that is still open.
func (cw *Writer) Reset(w io.Writer, volDims grid.Dims) error {
	if cw.fw != nil && !cw.closed {
		return fmt.Errorf("chunk: Reset on an open Writer")
	}
	return cw.init(w, volDims, cw.opts)
}

func (cw *Writer) init(w io.Writer, volDims grid.Dims, opts Options) error {
	if !volDims.Valid() {
		return fmt.Errorf("chunk: invalid volume dims %v", volDims)
	}
	if err := opts.Params.Validate(); err != nil {
		return err
	}
	cw.opts = opts
	cw.start = time.Now()
	cw.volDims = volDims
	cw.chunkDims = grid.Dims{
		NX: clampTile(opts.chunkDims().NX, volDims.NX),
		NY: clampTile(opts.chunkDims().NY, volDims.NY),
		NZ: clampTile(opts.chunkDims().NZ, volDims.NZ),
	}
	if cd := cw.chunkDims; float64(cd.NX)*float64(cd.NY)*float64(cd.NZ) > codec.MaxChunkPoints {
		return fmt.Errorf("%w: chunk dims %v exceed the %d-sample chunk limit", codec.ErrDims, cd, codec.MaxChunkPoints)
	}
	cw.chunks = grid.SplitChunks(volDims, cw.chunkDims)
	cw.perSlab = ceilDiv(volDims.NX, cw.chunkDims.NX) * ceilDiv(volDims.NY, cw.chunkDims.NY)
	cw.fed = 0
	cw.closed = false
	cw.err = nil
	cw.stats = nil
	cw.layout = writeLayout(opts.Params.Mode == codec.ModeAdaptive || opts.Params.Codec != codec.CodecSPERR)

	fw, err := newFrameWriter(w, cw.layout, volDims, cw.opts.chunkDims(), len(cw.chunks))
	if err != nil {
		return err
	}
	cw.fw = fw
	cw.next = 0
	cw.pending = make(map[int]encResult)
	cw.codecs = make([]codec.CodecID, len(cw.chunks))
	cw.cstats = make([]codec.Stats, len(cw.chunks))
	cw.maxWall, cw.grows = 0, 0
	cw.pipe = newPipe[encResult](context.Background(), cw.opts.workers(), len(cw.chunks))
	return nil
}

// SetContext attaches a cancellation context to the Writer: once ctx is
// done, no further chunk encode starts (in-flight chunks finish, unseen)
// and Write/Close return ctx's error. Call it before the first Write; a
// Reset clears it. The zero state never cancels.
func (cw *Writer) SetContext(ctx context.Context) { cw.pipe.ctx = ctx }

// encode is one chunk's job on the pipe: it copies chunk i out of src
// (origin translated down by z0) into the arena, signals cut so the
// producer may reuse src, and encodes the copy.
func (cw *Writer) encode(ws *workerScratch, i int, src *grid.Volume, z0 int, cut *sync.WaitGroup) encResult {
	ch := cw.chunks[i]
	t0 := time.Now()
	g0 := ws.codec.Grows()
	ws.slab = src.CutoutInto(ws.slab, ch.X0, ch.Y0, ch.Z0-z0, ch.Dims)
	cut.Done()
	frame, id, st, err := cw.encodeChunk(ws.slab, ch.Dims, ws.codec)
	if err != nil {
		return encResult{err: fmt.Errorf("chunk %d %v: %w", i, ch.Dims, err)}
	}
	return encResult{frame: frame, Event: Event{
		Index:        i,
		Dims:         ch.Dims,
		BytesIn:      ch.Dims.Len() * 8,
		BytesOut:     len(frame),
		Codec:        id,
		WallTime:     time.Since(t0),
		ScratchGrows: ws.codec.Grows() - g0,
		Stats:        *st,
	}}
}

// encodeChunk runs the layout-correct encode of one chunk: the SPERR
// fast path for untagged streams, and the adaptive or fixed-backend
// dispatch for tagged ones, where the returned frame carries the codec
// tag byte.
func (cw *Writer) encodeChunk(data []float64, dims grid.Dims, s *codec.Scratch) ([]byte, codec.CodecID, *codec.Stats, error) {
	if !cw.tagged {
		stream, st, err := codec.EncodeChunkScratch(data, dims, cw.opts.Params, s)
		return stream, codec.CodecSPERR, st, err
	}
	var (
		id     codec.CodecID
		stream []byte
		st     *codec.Stats
		err    error
	)
	if cw.opts.Params.Mode == codec.ModeAdaptive {
		id, stream, st, err = codec.EncodeAdaptive(data, dims, cw.opts.Params, s)
	} else {
		b, ok := codec.Lookup(cw.opts.Params.Codec)
		if !ok {
			return nil, 0, nil, fmt.Errorf("chunk: unknown codec id %d", cw.opts.Params.Codec)
		}
		id = b.ID()
		stream, st, err = b.Encode(data, dims, cw.opts.Params, s)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	frame := make([]byte, 1+len(stream))
	frame[0] = byte(id)
	copy(frame[1:], stream)
	return frame, id, st, nil
}

// slabRange returns the sample offset and length of z-slab s.
func (cw *Writer) slabRange(s int) (start, length int) {
	xy := cw.volDims.NX * cw.volDims.NY
	z0 := s * cw.chunkDims.NZ
	return z0 * xy, (min(z0+cw.chunkDims.NZ, cw.volDims.NZ) - z0) * xy
}

// dispatchSlab submits every chunk of z-slab s to the pipe, cutting from
// src (a volume spanning exactly that slab), and waits until each started
// encode has copied its chunk out of src.
func (cw *Writer) dispatchSlab(s int, src *grid.Volume) {
	z0 := s * cw.chunkDims.NZ
	var cut sync.WaitGroup
	for i := s * cw.perSlab; i < (s+1)*cw.perSlab && i < len(cw.chunks); i++ {
		ws := cw.pipe.slot(cw.emit)
		if ws == nil {
			break
		}
		cut.Add(1)
		cw.pipe.submit(ws, cw.chunks[i].Dims.Len(), func(ws *workerScratch) encResult {
			return cw.encode(ws, i, src, z0, &cut)
		})
	}
	cut.Wait()
}

// Write feeds the next samples of the volume in row-major order. It
// dispatches chunk compressions as z-slabs complete and may block, writing
// finished frames, while encodes are in flight. The sample count across
// all Writes must equal the volume extent by Close time.
func (cw *Writer) Write(p []float64) (int, error) {
	if cw.closed {
		return 0, fmt.Errorf("chunk: Write after Close")
	}
	if err := cw.pipe.stopped(); err != nil {
		return 0, err
	}
	total, xy := cw.volDims.Len(), cw.volDims.NX*cw.volDims.NY
	written := 0
	for len(p) > 0 {
		if cw.fed >= total {
			return written, fmt.Errorf("chunk: %d samples beyond volume %v", len(p), cw.volDims)
		}
		s := cw.fed / xy / cw.chunkDims.NZ // the slab the next sample belongs to
		start, length := cw.slabRange(s)
		pos := cw.fed - start
		// A whole slab handed over is cut straight from the caller's
		// buffer, with no accumulation copy: dispatchSlab returns only
		// after every chunk has been copied out, so p may be reused after
		// Write.
		slab, n := p, length
		if pos != 0 || len(p) < length {
			if cap(cw.slabBuf) < length {
				cw.slabBuf = make([]float64, length)
			}
			slab, n = cw.slabBuf, copy(cw.slabBuf[pos:length], p)
		}
		cw.fed += n
		written += n
		p = p[n:]
		if cw.fed == start+length {
			cw.dispatchSlab(s, grid.FromSlice(grid.Dims{NX: cw.volDims.NX, NY: cw.volDims.NY, NZ: length / xy}, slab[:length]))
		}
		if err := cw.pipe.stopped(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close waits for all chunk compressions, writes the index footer, and
// finalizes Stats. It is an error to Close before the volume's full
// sample count has been written.
func (cw *Writer) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	short := cw.fed != cw.volDims.Len()
	cw.pipe.wait(cw.emit)
	if err := cw.pipe.stopped(); err != nil {
		cw.err = err
		return err
	}
	if short {
		cw.err = fmt.Errorf("chunk: volume %v needs %d samples, got %d",
			cw.volDims, cw.volDims.Len(), cw.fed)
		return cw.err
	}

	st := &Stats{
		Chunks:       cw.cstats,
		NumPoints:    cw.volDims.Len(),
		MaxChunkTime: cw.maxWall,
		ScratchGrows: cw.grows,
		CodecCounts:  make(map[string]int, 1),
	}
	for i := range cw.cstats {
		st.NumOutliers += cw.cstats[i].NumOutliers
		st.SpeckBits += cw.cstats[i].SpeckBits
		st.OutlierBits += cw.cstats[i].OutlierBits
		st.CodecCounts[cw.codecs[i].String()]++
	}
	total, err := cw.fw.finish(cw.codecs, aggregates{mode: cw.opts.Params.Mode, tol: cw.opts.Params.Tol,
		speckBits: st.SpeckBits, outlierBits: st.OutlierBits})
	if err != nil {
		cw.err = err
		return err
	}
	st.TotalBytes = total
	st.WallTime = time.Since(cw.start)
	cw.stats = st
	return nil
}

// Stats returns the compression statistics; valid after a successful
// Close.
func (cw *Writer) Stats() *Stats { return cw.stats }

// NumChunks returns the number of chunks the volume tiles into.
func (cw *Writer) NumChunks() int { return len(cw.chunks) }

// PeakInFlightSamples reports the maximum number of chunk samples held by
// encodes in flight at any one time — the engine's bounded-memory witness
// (at most workers x chunk size, on top of a single accumulation slab).
func (cw *Writer) PeakInFlightSamples() int { return cw.pipe.peak }

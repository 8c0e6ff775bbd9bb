package chunk

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// ctxBox wraps a context.Context so it can sit behind an atomic.Pointer:
// the producer goroutine publishes it once via SetContext while worker
// goroutines (already launched) load it per job.
type ctxBox struct{ ctx context.Context }

func loadCtx(p *atomic.Pointer[ctxBox]) context.Context {
	if b := p.Load(); b != nil {
		return b.ctx
	}
	return context.Background()
}

// Writer is the streaming encoder engine: it accepts a volume's samples
// incrementally in row-major order (x fastest, any Write granularity),
// compresses chunks on a worker pool as soon as their samples are
// complete, and emits container frames to the underlying io.Writer in
// chunk-index order — out-of-order completions wait in a reorder buffer,
// so the byte stream is identical at every worker count. Close writes the
// index footer.
//
// Peak memory is bounded by the in-flight chunk set, not the volume: at
// most one accumulation slab (volume XY extent x chunk Z extent; none at
// all when Write is handed whole slabs) plus one chunk slab per worker.
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
	workers   int

	// Producer-side accumulation.
	fed      int // samples received so far
	slabBuf  []float64
	slabFill int

	jobs chan encJob
	wg   sync.WaitGroup
	em   *frameEmitter

	inFlight     atomic.Int64 // samples held in worker chunk slabs
	peakInFlight atomic.Int64

	ctx atomic.Pointer[ctxBox] // optional cancellation, see SetContext

	stats  *Stats
	closed bool
	err    error
}

// encJob hands one chunk to a worker. The worker cuts the chunk's samples
// out of src (origin translated by off) into its own arena, then signals
// cutDone so the producer may reuse or release src.
type encJob struct {
	index   int
	src     *grid.Volume
	x0      int
	y0      int
	z0      int
	dims    grid.Dims
	cutDone *sync.WaitGroup
}

// encResult is one compressed chunk awaiting its turn in the emitter.
type encResult struct {
	frame []byte // the frame payload: codec tag byte when tagged, then the backend stream
	id    codec.CodecID
	stats codec.Stats
	wall  time.Duration
	grows int
	dims  grid.Dims
}

// frameEmitter sequences compressed chunks into the output stream in
// index order, through the frameWriter that accumulates the index footer.
type frameEmitter struct {
	mu      sync.Mutex
	fw      *frameWriter
	next    int
	pending map[int]encResult
	codecs  []codec.CodecID // per-chunk winners, the tagged footer's codec map
	stats   []codec.Stats
	walls   []time.Duration
	grows   []int
	seq     func(Event) // optional ordered instrumentation callback
	chunks  []grid.Chunk
	err     error
}

func (em *frameEmitter) fail(err error) {
	em.mu.Lock()
	if em.err == nil {
		em.err = err
	}
	em.mu.Unlock()
}

func (em *frameEmitter) error() error {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.err
}

// deliver hands a completed chunk to the emitter; frames are written the
// moment their turn arrives, under the emitter lock.
func (em *frameEmitter) deliver(i int, res encResult) {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err != nil {
		return
	}
	if i != em.next {
		em.pending[i] = res
		return
	}
	em.writeLocked(i, res)
	em.next++
	// A failed write ends the run: em.err is sticky, and nothing may follow
	// a frame the stream is missing or holds half of.
	for em.err == nil {
		res, ok := em.pending[em.next]
		if !ok {
			return
		}
		delete(em.pending, em.next)
		em.writeLocked(em.next, res)
		em.next++
	}
}

func (em *frameEmitter) writeLocked(i int, res encResult) {
	if err := em.fw.frame(res.frame, frameCRC(res.frame)); err != nil {
		em.err = err
		return
	}
	em.codecs[i] = res.id
	em.stats[i] = res.stats
	em.walls[i] = res.wall
	em.grows[i] = res.grows
	if em.seq != nil {
		em.seq(Event{
			Index:        i,
			Dims:         res.dims,
			BytesIn:      res.dims.Len() * 8,
			BytesOut:     len(res.frame),
			Codec:        res.id,
			WallTime:     res.wall,
			ScratchGrows: res.grows,
			Stats:        res.stats,
		})
	}
}

// NewWriter starts a streaming compression of a volume with extent
// volDims into w: it writes the container's fixed header immediately and
// launches the worker pool. Feed the samples with Write, then Close.
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
	if cw.jobs != nil && !cw.closed {
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
	cw.chunks = grid.SplitChunks(volDims, cw.chunkDims)
	cw.perSlab = ceilDiv(volDims.NX, cw.chunkDims.NX) * ceilDiv(volDims.NY, cw.chunkDims.NY)
	cw.fed = 0
	cw.slabFill = 0
	cw.closed = false
	cw.err = nil
	cw.stats = nil
	cw.layout = writeLayout(opts.Params.Mode == codec.ModeAdaptive || opts.Params.Codec != codec.CodecSPERR)
	cw.inFlight.Store(0)
	cw.peakInFlight.Store(0)
	cw.ctx.Store(nil)

	// Workers beyond the chunk count would have nothing to encode.
	cw.workers = min(cw.opts.workers(), len(cw.chunks))

	var seq func(Event)
	if hook := cw.opts.Instrument; hook != nil {
		seq = hook
	}
	fw, err := newFrameWriter(w, cw.layout, volDims, cw.opts.chunkDims(), len(cw.chunks))
	if err != nil {
		return err
	}
	cw.em = &frameEmitter{
		fw:      fw,
		pending: make(map[int]encResult),
		codecs:  make([]codec.CodecID, len(cw.chunks)),
		stats:   make([]codec.Stats, len(cw.chunks)),
		walls:   make([]time.Duration, len(cw.chunks)),
		grows:   make([]int, len(cw.chunks)),
		seq:     seq,
		chunks:  cw.chunks,
	}

	cw.jobs = make(chan encJob, cw.workers)
	cw.wg = sync.WaitGroup{}
	for i := 0; i < cw.workers; i++ {
		cw.wg.Add(1)
		go cw.encodeWorker()
	}
	return nil
}

// SetContext attaches a cancellation context to the Writer: once ctx is
// done, workers stop picking up queued chunk encodes (in-flight chunks
// finish), and Write/Close return ctx's error. Call it before the first
// Write; a Reset clears it. The zero state never cancels.
func (cw *Writer) SetContext(ctx context.Context) { cw.ctx.Store(&ctxBox{ctx: ctx}) }

func (cw *Writer) encodeWorker() {
	defer cw.wg.Done()
	ws := scratchPool.Get().(*workerScratch)
	defer scratchPool.Put(ws)
	for job := range cw.jobs {
		if err := loadCtx(&cw.ctx).Err(); err != nil {
			cw.em.fail(err)
		}
		if cw.em.error() != nil {
			job.cutDone.Done()
			continue
		}
		t0 := time.Now()
		g0 := ws.codec.Grows()
		ws.slab = job.src.CutoutInto(ws.slab, job.x0, job.y0, job.z0, job.dims)
		job.cutDone.Done()
		n := int64(job.dims.Len())
		raisePeak(&cw.peakInFlight, cw.inFlight.Add(n))
		frame, id, st, err := cw.encodeChunk(ws.slab, job.dims, ws.codec)
		cw.inFlight.Add(-n)
		if err != nil {
			cw.em.fail(fmt.Errorf("chunk %d %v: %w", job.index, job.dims, err))
			continue
		}
		cw.em.deliver(job.index, encResult{
			frame: frame,
			id:    id,
			stats: *st,
			wall:  time.Since(t0),
			grows: ws.codec.Grows() - g0,
			dims:  job.dims,
		})
	}
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
	nz := cw.chunkDims.NZ
	if z0+nz > cw.volDims.NZ {
		nz = cw.volDims.NZ - z0
	}
	return z0 * xy, nz * xy
}

// dispatchSlab enqueues every chunk of z-slab s, cutting from src (a
// volume spanning exactly that slab), and waits until all workers have
// copied their chunk out of src.
func (cw *Writer) dispatchSlab(s int, src *grid.Volume) {
	z0 := s * cw.chunkDims.NZ
	var cut sync.WaitGroup
	for i := s * cw.perSlab; i < (s+1)*cw.perSlab && i < len(cw.chunks); i++ {
		ch := cw.chunks[i]
		cut.Add(1)
		cw.jobs <- encJob{
			index:   i,
			src:     src,
			x0:      ch.X0,
			y0:      ch.Y0,
			z0:      ch.Z0 - z0,
			dims:    ch.Dims,
			cutDone: &cut,
		}
	}
	cut.Wait()
}

// Write feeds the next samples of the volume in row-major order. It
// dispatches chunk compressions as z-slabs complete and may block while
// workers drain. The sample count across all Writes must equal the volume
// extent by Close time.
func (cw *Writer) Write(p []float64) (int, error) {
	if cw.closed {
		return 0, fmt.Errorf("chunk: Write after Close")
	}
	if err := loadCtx(&cw.ctx).Err(); err != nil {
		cw.em.fail(err)
	}
	if err := cw.em.error(); err != nil {
		return 0, err
	}
	total := cw.volDims.Len()
	written := 0
	for len(p) > 0 {
		if cw.fed >= total {
			return written, fmt.Errorf("chunk: %d samples beyond volume %v", len(p), cw.volDims)
		}
		s := cw.currentSlab()
		start, length := cw.slabRange(s)
		pos := cw.fed - start
		if pos == 0 && cw.slabFill == 0 && len(p) >= length {
			// The caller handed a whole slab: cut chunks straight from its
			// buffer, no accumulation copy. dispatchSlab returns only after
			// every chunk has been copied out, so p may be reused after
			// Write.
			src := grid.FromSlice(grid.Dims{NX: cw.volDims.NX, NY: cw.volDims.NY, NZ: length / (cw.volDims.NX * cw.volDims.NY)}, p[:length])
			cw.dispatchSlab(s, src)
			cw.fed += length
			written += length
			p = p[length:]
		} else {
			if cap(cw.slabBuf) < length {
				cw.slabBuf = make([]float64, length)
			}
			n := copy(cw.slabBuf[pos:length], p)
			cw.slabFill = pos + n
			cw.fed += n
			written += n
			p = p[n:]
			if cw.slabFill == length {
				src := grid.FromSlice(grid.Dims{NX: cw.volDims.NX, NY: cw.volDims.NY, NZ: length / (cw.volDims.NX * cw.volDims.NY)}, cw.slabBuf[:length])
				cw.dispatchSlab(s, src)
				cw.slabFill = 0
			}
		}
		if err := cw.em.error(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// currentSlab returns the z-slab the next incoming sample belongs to.
func (cw *Writer) currentSlab() int {
	xy := cw.volDims.NX * cw.volDims.NY
	return (cw.fed / xy) / cw.chunkDims.NZ
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
	close(cw.jobs)
	cw.wg.Wait()
	if err := loadCtx(&cw.ctx).Err(); err != nil {
		cw.em.fail(err)
	}
	if err := cw.em.error(); err != nil {
		cw.err = err
		return err
	}
	if short {
		cw.err = fmt.Errorf("chunk: volume %v needs %d samples, got %d",
			cw.volDims, cw.volDims.Len(), cw.fed)
		return cw.err
	}

	agg := aggregates{mode: cw.opts.Params.Mode, tol: cw.opts.Params.Tol}
	for i := range cw.em.stats {
		agg.speckBits += cw.em.stats[i].SpeckBits
		agg.outlierBits += cw.em.stats[i].OutlierBits
	}
	total, err := cw.em.fw.finish(cw.em.codecs, agg)
	if err != nil {
		cw.err = err
		return err
	}

	st := &Stats{
		Chunks:      cw.em.stats,
		WallTime:    time.Since(cw.start),
		TotalBytes:  total,
		NumPoints:   cw.volDims.Len(),
		CodecCounts: make(map[string]int, 1),
	}
	for _, id := range cw.em.codecs {
		st.CodecCounts[id.String()]++
	}
	for i := range cw.em.stats {
		st.NumOutliers += cw.em.stats[i].NumOutliers
		st.SpeckBits += cw.em.stats[i].SpeckBits
		st.OutlierBits += cw.em.stats[i].OutlierBits
		st.ScratchGrows += cw.em.grows[i]
		if cw.em.walls[i] > st.MaxChunkTime {
			st.MaxChunkTime = cw.em.walls[i]
		}
	}
	cw.stats = st
	return nil
}

// Stats returns the compression statistics; valid after a successful
// Close.
func (cw *Writer) Stats() *Stats { return cw.stats }

// NumChunks returns the number of chunks the volume tiles into.
func (cw *Writer) NumChunks() int { return len(cw.chunks) }

// PeakInFlightSamples reports the maximum number of chunk samples held in
// worker arenas at any one time — the engine's bounded-memory witness
// (at most workers x chunk size, on top of a single accumulation slab).
func (cw *Writer) PeakInFlightSamples() int { return int(cw.peakInFlight.Load()) }

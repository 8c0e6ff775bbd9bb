// Package chunk implements SPERR's embarrassingly parallel execution
// strategy (paper Section III-D): a large volume is divided into chunks,
// each chunk is compressed independently on its own goroutine (standing in
// for the paper's OpenMP threads), and the per-chunk bitstreams are
// concatenated under a container header. Chunk dimensions need not divide
// the volume dimensions; remainder chunks are simply smaller. The achieved
// parallelism is capped by the number of chunks, exactly as the paper
// observes.
package chunk

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// DefaultChunkDim is the default chunk edge length; the paper settles on
// 256^3 as a good balance between compression efficiency and exposed
// parallelism (Section V-B).
const DefaultChunkDim = 256

// ErrCorrupt reports an undecodable container.
var ErrCorrupt = errors.New("chunk: corrupt container")

// Options controls a volume compression.
type Options struct {
	// Params is forwarded to every chunk encoder.
	Params codec.Params
	// ChunkDims bounds each chunk; zero components default to
	// DefaultChunkDim. Chunks at the high boundaries may be smaller.
	ChunkDims grid.Dims
	// Workers is the number of concurrent chunk encoders; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Instrument, when non-nil, receives one Event per completed chunk.
	// Events are delivered in chunk-index order regardless of Workers: a
	// reorder map holds out-of-order completions until the preceding
	// chunks finish. The callback runs on the goroutine that calls the
	// Writer's Write or Close, one event at a time, and no chunk encode
	// starts while it executes, so it must be fast and must not call the
	// Writer.
	Instrument func(Event)
}

// Event describes one completed chunk compression, for instrumentation.
type Event struct {
	// Index is the chunk's position in container order.
	Index int
	// Dims is the chunk extent.
	Dims grid.Dims
	// BytesIn is the uncompressed chunk size (points x 8 bytes).
	BytesIn int
	// BytesOut is the compressed chunk stream size.
	BytesOut int
	// Codec identifies the backend that coded this chunk (always
	// CodecSPERR outside adaptive/fixed-backend v3 streams).
	Codec codec.CodecID
	// WallTime covers the chunk's copy-in plus all four codec stages.
	WallTime time.Duration
	// ScratchGrows counts arena buffer (re)allocations during this chunk;
	// zero once the worker's scratch is warm.
	ScratchGrows int
	// Stats is the chunk's stage breakdown.
	Stats codec.Stats
}

// workerScratch is the per-goroutine arena of the parallel pipeline: the
// codec's scratch plus the chunk copy-in slab. Drawn from scratchPool so
// repeated Compress/Decompress calls reuse warmed arenas.
type workerScratch struct {
	codec *codec.Scratch
	slab  []float64
	frame []byte // a Reader's frame payload, read before the decode starts
}

var scratchPool = sync.Pool{New: func() any {
	return &workerScratch{codec: codec.NewScratch()}
}}

func (o Options) chunkDims() grid.Dims {
	d := o.ChunkDims
	if d.NX <= 0 {
		d.NX = DefaultChunkDim
	}
	if d.NY <= 0 {
		d.NY = DefaultChunkDim
	}
	if d.NZ <= 0 {
		d.NZ = DefaultChunkDim
	}
	return d
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats aggregates per-chunk statistics of one volume compression.
type Stats struct {
	Chunks      []codec.Stats
	WallTime    time.Duration // end-to-end wall time of Compress
	TotalBytes  int
	NumPoints   int
	NumOutliers int
	SpeckBits   uint64
	OutlierBits uint64

	// MaxChunkTime is the longest single-chunk wall time (copy-in plus
	// codec stages) — the parallel pipeline's critical path.
	MaxChunkTime time.Duration
	// ScratchGrows totals arena buffer (re)allocations across all workers;
	// near zero when the scratch pool is warm.
	ScratchGrows int
	// CodecCounts maps backend name to the number of chunks it coded.
	// Always non-nil after a successful compression; {"sperr": n} outside
	// adaptive/fixed-backend streams.
	CodecCounts map[string]int
}

// BPP returns the achieved container bitrate in bits per point.
func (s *Stats) BPP() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return float64(s.TotalBytes*8) / float64(s.NumPoints)
}

// Compress compresses vol chunk-by-chunk in parallel and returns the
// container stream (format v2, or v3 when frames carry codec tags). It is a thin in-memory wrapper over the
// streaming Writer engine: the whole volume is fed at once, so chunks cut
// straight from vol with no accumulation copies, and the output is
// byte-identical at every worker count.
func Compress(vol *grid.Volume, opts Options) ([]byte, *Stats, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, vol.Dims, opts)
	if err != nil {
		return nil, nil, err
	}
	if _, err := w.Write(vol.Data); err != nil {
		w.Close()
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), w.Stats(), nil
}

// Decompress reconstructs a volume from a container stream (any format
// version), decoding chunks in parallel on up to workers goroutines (<= 0
// means GOMAXPROCS). It is a thin wrapper over the streaming Reader
// engine with the whole container in memory.
func Decompress(stream []byte, workers int) (*grid.Volume, error) {
	d, err := NewReader(bytes.NewReader(stream), workers)
	if err != nil {
		return nil, err
	}
	vol := grid.NewVolume(d.VolumeDims())
	err = d.ForEachParallel(func(_ int, ch grid.Chunk, data []float64) error {
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vol, nil
}

// decoded is one chunk decode's result: the job's index, its samples
// (aliasing the job's arena) or its error.
type decoded struct {
	k    int
	data []float64
	err  error
}

// decodeEach is the package's one random-access decode loop: decode(k,
// arena) for k in [0, n), at most workers at a time (<= 0: GOMAXPROCS),
// each on a pooled arena, with each result handed to fn on the calling
// goroutine, one at a time, before its arena is reused. An fn error stops
// dispatch, and decodeEach returns it once the decodes in flight finish;
// nil goes on, even past that chunk's error. A canceled ctx stops dispatch
// too.
func decodeEach(ctx context.Context, n, workers int,
	decode func(k int, s *codec.Scratch) ([]float64, error),
	fn func(k int, data []float64, err error) error) error {
	deliver := func(d decoded) error { return fn(d.k, d.data, d.err) }
	p := newPipe[decoded](ctx, workers, n)
	for k := 0; k < n; k++ {
		ws := p.slot(deliver)
		if ws == nil {
			break
		}
		p.submit(ws, 0, func(ws *workerScratch) decoded {
			data, err := decode(k, ws.codec)
			return decoded{k, data, err}
		})
	}
	return p.wait(deliver)
}

// pipe is the package's one dispatch loop, under every chunk encode and
// decode: each job runs on its own goroutine with a pooled arena, at most
// workers at a time, and each result is handed to fn, the callback slot
// and wait take, on the goroutine that calls them, one at a time, before
// its arena goes back to the pool. An fn error or a done ctx stops
// dispatch; results still in flight then drain unseen. Only the
// dispatching goroutine touches a pipe's fields, and a finished job never
// blocks, so a pipe abandoned between calls leaves nothing running.
// fn is an argument, not a field, so a closure over the caller's locals
// stays on its stack (TestDecodeLoopKeepsCallbackOnStack).
type pipe[R any] struct {
	ctx     context.Context
	workers int
	done    chan piped[R]
	err     error // what stopped dispatch, sticky

	inflight      int // jobs started and not yet delivered
	samples, peak int // samples those jobs hold, and its running maximum

	// free holds the arenas of delivered jobs for the next ones until wait.
	// Put back in scratchPool at once, an arena lands in the pool slot of
	// the P the dispatcher woke on, which no other P can take from, and a
	// dispatcher woken on another P builds a fresh arena instead.
	free []*workerScratch
}

// piped carries a finished job back to the dispatching goroutine.
type piped[R any] struct {
	ws      *workerScratch
	samples int
	r       R
}

// newPipe makes a pipe for at most n jobs, running up to workers of them
// at once (<= 0: GOMAXPROCS).
func newPipe[R any](ctx context.Context, workers, n int) pipe[R] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	// A slot per job in flight: a finished job never waits on fn.
	return pipe[R]{ctx: ctx, workers: workers, done: make(chan piped[R], workers)}
}

// stopped returns what stopped dispatch: fn's error or the ctx's, or nil.
func (p *pipe[R]) stopped() error {
	if p.err == nil {
		p.err = p.ctx.Err()
	}
	return p.err
}

// slot waits, delivering finished results to fn, until another job may
// start, and returns a pooled arena for it; nil once dispatch has stopped.
func (p *pipe[R]) slot(fn func(R) error) *workerScratch {
	for p.stopped() == nil && p.inflight >= p.workers {
		p.receive(fn)
	}
	if p.err != nil {
		return nil
	}
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free = p.free[:n-1]
		return ws
	}
	return scratchPool.Get().(*workerScratch)
}

// submit starts job on ws, an arena from slot, on its own goroutine.
// samples is what the job holds in flight, for PeakInFlightSamples.
func (p *pipe[R]) submit(ws *workerScratch, samples int, job func(*workerScratch) R) {
	p.inflight++
	p.samples += samples
	p.peak = max(p.peak, p.samples)
	done := p.done
	go func() { done <- piped[R]{ws, samples, job(ws)} }()
}

// abort stops dispatch with err, unless it has stopped already, and
// takes back ws, an arena from slot that no job took.
func (p *pipe[R]) abort(ws *workerScratch, err error) {
	if p.err == nil {
		p.err = err
	}
	p.free = append(p.free, ws)
}

// receive delivers one finished job's result to fn, unless dispatch has
// stopped, and keeps its arena for the next job.
func (p *pipe[R]) receive(fn func(R) error) {
	d := <-p.done
	p.inflight--
	p.samples -= d.samples
	if p.err == nil {
		p.err = fn(d.r)
	}
	p.free = append(p.free, d.ws)
}

// wait delivers the results of the jobs in flight to fn, returns every
// arena to the pool, and returns the error that stopped dispatch, if any.
func (p *pipe[R]) wait(fn func(R) error) error {
	for p.inflight > 0 {
		p.receive(fn)
	}
	for _, ws := range p.free {
		scratchPool.Put(ws)
	}
	p.free = nil
	return p.err
}

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
	// reorder buffer holds out-of-order completions until the preceding
	// chunks finish. The callback runs on pipeline goroutines under the
	// buffer's lock, so it must be fast and must not call back into this
	// package.
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
	// Chunks are disjoint, so concurrent InsertSlice calls touch disjoint
	// regions of vol.Data. data aliases the worker's arena; the copy-out
	// completes before the callback returns.
	err = d.ForEach(func(i int, ch grid.Chunk, data []float64) error {
		vol.InsertSlice(data, ch.Dims, ch.X0, ch.Y0, ch.Z0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vol, nil
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type decoded struct {
		k    int
		ws   *workerScratch
		data []float64
		err  error
	}
	// A slot per decode in flight: a finished decode never waits on fn,
	// which runs here, so fn does not escape.
	done := make(chan decoded, min(workers, n))
	var first error
	next, inflight := 0, 0
	for {
		for ; first == nil && inflight < workers && next < n; next++ {
			if first = ctx.Err(); first != nil {
				break
			}
			inflight++
			go func(k int, ws *workerScratch) {
				data, err := decode(k, ws.codec)
				done <- decoded{k, ws, data, err}
			}(next, scratchPool.Get().(*workerScratch))
		}
		if inflight == 0 {
			return first
		}
		d := <-done
		inflight--
		if first == nil {
			first = fn(d.k, d.data, d.err)
		}
		scratchPool.Put(d.ws)
	}
}

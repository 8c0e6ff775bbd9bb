package chunk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// maxFrameBytes bounds how large a single frame payload may claim to be,
// as a function of the largest chunk the container geometry allows. A
// corrupt length prefix must not be able to demand an allocation out of
// proportion to the data it could possibly carry.
func maxFrameBytes(chunks []grid.Chunk) int {
	const slack = 64 << 10
	maxChunkLen := 0
	for _, ch := range chunks {
		maxChunkLen = max(maxChunkLen, ch.Dims.Len())
	}
	return 256*maxChunkLen + slack
}

// readChunkMax caps each allocation step while reading a frame payload,
// so a lying length prefix on a truncated stream fails after at most one
// step instead of allocating the full claim up front.
const readChunkMax = 1 << 20

// Reader is the streaming decoder engine: it reads container frames
// sequentially from any io.Reader (formats v2 and v3), decodes chunks on a
// worker pool, and hands each decoded chunk to a callback. Peak decoded
// data in flight is bounded by workers x chunk size — never the volume.
type Reader struct {
	layout
	r io.Reader

	volDims   grid.Dims
	chunkDims grid.Dims
	chunks    []grid.Chunk
	workers   int

	consumed bool
	ctx      context.Context // optional cancellation, see SetContext

	remain int64   // input bytes past the header when seekable, else -1
	word   [4]byte // nextFrame's length-prefix / checksum read buffer

	inFlight     atomic.Int64
	peakInFlight atomic.Int64
}

// NewReader parses the container's fixed header from r and prepares a
// streaming decode. workers <= 0 means GOMAXPROCS.
func NewReader(r io.Reader, workers int) (*Reader, error) {
	var hdr [fixedHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	d := &Reader{r: r, workers: workers, remain: -1}
	// When the input can report its size, remember how many bytes remain
	// past the header: a forged length prefix is then rejected before any
	// allocation instead of after a bounded-step read fails.
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil {
				if _, err := s.Seek(cur, io.SeekStart); err == nil {
					d.remain = end - cur
				}
			}
		}
	}
	var err error
	d.layout, d.volDims, d.chunkDims, d.chunks, err = parseFixedHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return d, nil
}

// VolumeDims returns the volume extent declared by the container header.
func (d *Reader) VolumeDims() grid.Dims { return d.volDims }

// ChunkDims returns the declared chunk tiling bound.
func (d *Reader) ChunkDims() grid.Dims { return d.chunkDims }

// NumChunks returns the number of chunks in the container.
func (d *Reader) NumChunks() int { return len(d.chunks) }

// Version reports the container format version (2 or 3).
func (d *Reader) Version() int { return d.version }

// SetWorkers adjusts the decode worker budget before ForEach (<= 0 means
// GOMAXPROCS).
func (d *Reader) SetWorkers(n int) { d.workers = n }

// SetContext attaches a cancellation context to the Reader: once ctx is
// done, the frame producer stops reading and workers stop picking up
// queued decodes, so ForEach returns ctx's error promptly instead of
// draining the container. Call it before ForEach. The zero state never
// cancels.
func (d *Reader) SetContext(ctx context.Context) { d.ctx = ctx }

func (d *Reader) ctxErr() error {
	if d.ctx == nil {
		return nil
	}
	return d.ctx.Err()
}

// PeakInFlightSamples reports the maximum number of decoded samples alive
// at any one time during ForEach — at most workers x chunk size.
func (d *Reader) PeakInFlightSamples() int { return int(d.peakInFlight.Load()) }

// decJob is one compressed frame payload awaiting decode.
type decJob struct {
	index   int
	payload []byte
}

// ForEach streams every chunk of the container through fn: frames are
// read sequentially, decoded in parallel, and fn is invoked once per
// chunk with its geometry and decoded samples. fn runs concurrently on
// worker goroutines and data aliases a worker arena — copy out before
// returning. The first damaged byte fails the whole decode with
// ErrCorrupt; a damaged container is read through Salvage instead.
// ForEach consumes the Reader; it can be called once.
func (d *Reader) ForEach(fn func(index int, ch grid.Chunk, data []float64) error) error {
	if d.consumed {
		return fmt.Errorf("chunk: Reader already consumed")
	}
	d.consumed = true

	workers := d.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(d.chunks))
	maxFrame := maxFrameBytes(d.chunks)

	var (
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}

	bufPool := sync.Pool{New: func() any { return new([]byte) }}
	jobs := make(chan decJob, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := scratchPool.Get().(*workerScratch)
			defer scratchPool.Put(ws)
			for job := range jobs {
				if err := d.ctxErr(); err != nil {
					fail(err)
				}
				if !failed.Load() {
					ch := d.chunks[job.index]
					n := int64(ch.Dims.Len())
					raisePeak(&d.peakInFlight, d.inFlight.Add(n))
					data, err := d.decode(job.payload, ch.Dims, ws.codec)
					if err != nil {
						fail(fmt.Errorf("chunk %d: %w", job.index, err))
					} else if !failed.Load() {
						if err := fn(job.index, ch, data); err != nil {
							fail(err)
						}
					}
					d.inFlight.Add(-n)
				}
				buf := job.payload[:0]
				bufPool.Put(&buf)
			}
		}()
	}

	// Producer: read frames sequentially, recording what the index footer
	// must later corroborate: entries always, and on tagged layouts the
	// frame codec tags the footer's codec map must mirror.
	entries := make([]indexEntry, len(d.chunks))
	var tags []codec.CodecID
	if d.tagged {
		tags = make([]codec.CodecID, len(d.chunks))
	}
	off := uint64(fixedHeaderSize)
	for i := range d.chunks {
		if err := d.ctxErr(); err != nil {
			fail(err)
		}
		if failed.Load() {
			break
		}
		bp := bufPool.Get().(*[]byte)
		payload, crc, err := d.nextFrame(*bp, maxFrame)
		if err != nil {
			fail(fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err))
			break
		}
		entries[i] = indexEntry{offset: off, length: uint32(len(payload)), crc: crc}
		off += uint64(frameOverhead + len(payload))
		if d.tagged && len(payload) > 0 {
			tags[i] = codec.CodecID(payload[0])
		}
		jobs <- decJob{index: i, payload: payload}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Consume and corroborate the index footer: every entry must match the
	// frames just decoded, and on tagged layouts the codec map must mirror
	// the frame tags (every frame decoded, so every tagged payload had one).
	idxLen := d.indexSize(len(d.chunks))
	idx := make([]byte, idxLen)
	if _, err := io.ReadFull(d.r, idx); err != nil {
		return fmt.Errorf("%w: truncated index footer: %v", ErrCorrupt, err)
	}
	got, codecs, _, err := parseIndex(idx, d.layout, len(d.chunks), off, int(off)+idxLen)
	if err != nil {
		return err
	}
	for i := range got {
		if got[i] != entries[i] {
			return fmt.Errorf("%w: index entry %d disagrees with frame", ErrCorrupt, i)
		}
	}
	for i := range codecs {
		if tags[i] != codecs[i] {
			return fmt.Errorf("%w: index codec %s disagrees with frame %d tag %d",
				ErrCorrupt, codecs[i], i, tags[i])
		}
	}
	return nil
}

// raisePeak lifts the running-maximum counter to cur if it exceeds the
// recorded peak, racing correctly against concurrent raises.
func raisePeak(peak *atomic.Int64, cur int64) {
	for {
		p := peak.Load()
		if cur <= p || peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// nextFrame reads the next frame from the input into buf (grown as
// needed): length prefix, payload, and the trailing checksum, which must
// match. It returns the payload and its CRC.
func (d *Reader) nextFrame(buf []byte, maxFrame int) (payload []byte, crc uint32, err error) {
	took := func(n int) {
		if d.remain >= 0 {
			d.remain -= int64(n)
		}
	}
	word := d.word[:]
	if _, err := io.ReadFull(d.r, word); err != nil {
		return nil, 0, fmt.Errorf("truncated length prefix: %v", err)
	}
	took(4)
	n := int(binary.LittleEndian.Uint32(word))
	if n > maxFrame {
		return nil, 0, fmt.Errorf("claims %d bytes (cap %d)", n, maxFrame)
	}
	if d.remain >= 0 && int64(n) > d.remain {
		// The input's size is known and the claim exceeds it: reject
		// before allocating anything (a forged prefix must not drive a
		// large up-front allocation just to fail the read).
		return nil, 0, fmt.Errorf("claims %d bytes with %d remaining", n, d.remain)
	}
	if payload, err = readFrame(d.r, buf, n); err != nil {
		return nil, 0, fmt.Errorf("payload: %v", err)
	}
	took(n)
	crc = frameCRC(payload)
	if _, err := io.ReadFull(d.r, word); err != nil {
		return nil, 0, fmt.Errorf("checksum truncated: %v", err)
	}
	took(4)
	if binary.LittleEndian.Uint32(word) != crc {
		return nil, 0, errors.New("checksum mismatch")
	}
	return payload, crc, nil
}

// readFrame reads exactly n payload bytes into buf (grown as needed),
// allocating in bounded steps so a lying length prefix on a truncated
// stream cannot demand the full claim up front.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := n - len(buf)
		if step > readChunkMax {
			step = readChunkMax
		}
		start := len(buf)
		if cap(buf) < start+step {
			grown := make([]byte, start, start+step)
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:0], err
		}
	}
	return buf, nil
}

package chunk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
// sequentially from any io.Reader (formats v1, v2, and v3), decodes chunks on
// a worker pool, and hands each decoded chunk to a callback. Peak decoded
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

	policy Policy
	fill   float64
	report *SalvageReport
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
	d := &Reader{r: r, workers: workers, fill: math.NaN(), remain: -1}
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

// Version reports the container format version (1, 2, or 3).
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

// SetPolicy selects how ForEach reacts to damaged frames. The default,
// PolicyFailFast, aborts on the first damaged byte. PolicySkip decodes
// and delivers the intact chunks and records the damaged ones in the
// report; PolicyFill additionally delivers fill-valued samples for every
// damaged chunk, so the callback still observes each chunk exactly once.
// Under either tolerant policy, frame-level damage no longer makes
// ForEach return an error — consult Report afterwards. Context
// cancellation and callback errors always fail. Call before ForEach.
func (d *Reader) SetPolicy(p Policy) { d.policy = p }

// SetFill sets the sample value synthesized for damaged chunks under
// PolicyFill. The default is NaN. Call before ForEach.
func (d *Reader) SetFill(v float64) { d.fill = v }

// Report returns the per-chunk outcomes of a ForEach run under PolicySkip
// or PolicyFill. It is nil before ForEach completes and under
// PolicyFailFast.
func (d *Reader) Report() *SalvageReport { return d.report }

// decJob is one compressed frame payload awaiting decode. A nil payload
// is a fill-synthesis job, queued under PolicyFill for a chunk whose frame
// was damaged; payloads read from the stream are never nil (see
// readFrame).
type decJob struct {
	index   int
	payload []byte
}

// ForEach streams every chunk of the container through fn: frames are
// read sequentially, decoded in parallel, and fn is invoked once per
// chunk with its geometry and decoded samples. fn runs concurrently on
// worker goroutines and data aliases a worker arena — copy out before
// returning. ForEach consumes the Reader; it can be called once.
func (d *Reader) ForEach(fn func(index int, ch grid.Chunk, data []float64) error) error {
	if d.consumed {
		return fmt.Errorf("chunk: Reader already consumed")
	}
	d.consumed = true

	tolerant := d.policy != PolicyFailFast
	if tolerant {
		d.report = newSalvageReport(d.version, d.chunks)
	}

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
					var (
						data []float64
						err  error
					)
					if job.payload != nil {
						data, err = d.decode(job.payload, ch.Dims, ws.codec)
					}
					switch {
					case job.payload != nil && err == nil:
						if tolerant {
							d.report.Chunks[job.index].Recovered = true
							d.report.Chunks[job.index].Reason = ""
						}
					case !tolerant:
						fail(fmt.Errorf("chunk %d: %w", job.index, err))
						data = nil
					default:
						// Tolerant decode failure, or a fill job. Workers
						// touch disjoint report slots, so no lock.
						if job.payload != nil {
							d.report.Chunks[job.index].Reason = ReasonDecode
						}
						data = nil
						if d.policy == PolicyFill {
							data = make([]float64, ch.Dims.Len())
							for i := range data {
								data[i] = d.fill
							}
						}
					}
					if data != nil && !failed.Load() {
						if err := fn(job.index, ch, data); err != nil {
							fail(err)
						}
					}
					d.inFlight.Add(-n)
				}
				if job.payload != nil {
					buf := job.payload[:0]
					bufPool.Put(&buf)
				}
			}
		}()
	}

	// degradeRest marks chunks from i on as lost — once framing is gone a
	// sequential reader cannot attribute another byte — and, under
	// PolicyFill, queues fill-synthesis jobs so the callback still sees
	// every chunk. Tolerant policies only.
	framingLost := false
	degradeRest := func(i int, reason string) {
		framingLost = true
		for j := i; j < len(d.chunks); j++ {
			r := reason
			if j > i {
				r = ReasonFramingLost
			}
			d.report.Chunks[j].Reason = r
			if d.policy == PolicyFill {
				jobs <- decJob{index: j, payload: nil}
			}
		}
	}

	// Producer: read frames sequentially, recording what the index footer
	// must later corroborate (indexed layouts): entries always, and on
	// tagged layouts the frame codec tags the footer's codec map must
	// mirror.
	entries := make([]indexEntry, len(d.chunks))
	var tags []codec.CodecID
	var tagSeen []bool
	if d.tagged {
		tags = make([]codec.CodecID, len(d.chunks))
		tagSeen = make([]bool, len(d.chunks))
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
		payload, crc, reason, err := d.nextFrame(*bp, maxFrame)
		if tolerant && payload != nil {
			d.report.Chunks[i].Offset = int64(off)
			d.report.Chunks[i].Length = len(payload)
		}
		// The one place a frame-read failure meets the policy. A checksum
		// mismatch alone leaves framing plausibly intact — the frame's
		// bytes were all read — so a tolerant decode records the loss and
		// keeps going; if the length prefix itself was the damaged byte,
		// the next frame fails too and the stream degrades from there.
		if err != nil && !(tolerant && reason == ReasonBadCRC) {
			if tolerant {
				degradeRest(i, reason)
			} else {
				fail(fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err))
			}
			break
		}
		entries[i] = indexEntry{offset: off, length: uint32(len(payload)), crc: crc}
		off += uint64(d.overhead + len(payload))
		if err != nil {
			d.report.Chunks[i].Reason = ReasonBadCRC
			if d.policy == PolicyFill {
				jobs <- decJob{index: i, payload: nil}
			}
			buf := payload[:0]
			bufPool.Put(&buf)
			continue
		}
		if d.tagged && len(payload) > 0 {
			tags[i] = codec.CodecID(payload[0])
			tagSeen[i] = true
		}
		jobs <- decJob{index: i, payload: payload}
	}
	close(jobs)
	wg.Wait()
	if tolerant {
		defer d.report.tally()
	}
	if firstErr != nil {
		return firstErr
	}

	if d.indexed {
		// Consume and corroborate the index footer: every entry must match
		// the frames just decoded. Under a tolerant policy a damaged or
		// unreachable footer is recorded, not fatal — the frames already
		// vouched for themselves via their own CRCs. A frame that failed
		// its own checksum is matched on offset and length only: which of
		// its payload and its two recorded CRCs is the damaged one cannot
		// be told, and the verdict here is on the footer, not the frame.
		corroborate := func() error {
			if framingLost {
				return fmt.Errorf("%w: footer unreachable after framing loss", ErrCorrupt)
			}
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
				// Only a tolerant run gets here past a bad frame, and no
				// worker rewrites the reason of a frame it was never given.
				if tolerant && d.report.Chunks[i].Reason == ReasonBadCRC {
					got[i].crc = entries[i].crc
				}
				if got[i] != entries[i] {
					return fmt.Errorf("%w: index entry %d disagrees with frame", ErrCorrupt, i)
				}
			}
			for i := range codecs {
				if tagSeen[i] && tags[i] != codecs[i] {
					return fmt.Errorf("%w: index codec %s disagrees with frame %d tag %d",
						ErrCorrupt, codecs[i], i, tags[i])
				}
			}
			return nil
		}
		err := corroborate()
		if tolerant {
			d.report.IndexIntact = err == nil
		} else if err != nil {
			return err
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
// needed): length prefix, payload, and on indexed layouts the trailing
// checksum. On failure reason classifies the damage for the salvage
// report, and payload is non-nil exactly when the payload bytes were all
// read — framing survived at least that far. A checksum mismatch returns
// the payload's actual CRC alongside ReasonBadCRC.
func (d *Reader) nextFrame(buf []byte, maxFrame int) (payload []byte, crc uint32, reason string, err error) {
	took := func(n int) {
		if d.remain >= 0 {
			d.remain -= int64(n)
		}
	}
	word := d.word[:]
	if _, err := io.ReadFull(d.r, word); err != nil {
		return nil, 0, ReasonTruncated, fmt.Errorf("truncated length prefix: %v", err)
	}
	took(4)
	n := int(binary.LittleEndian.Uint32(word))
	if n > maxFrame {
		return nil, 0, ReasonFramingLost, fmt.Errorf("claims %d bytes (cap %d)", n, maxFrame)
	}
	if d.remain >= 0 && int64(n) > d.remain {
		// The input's size is known and the claim exceeds it: reject
		// before allocating anything (a forged prefix must not drive a
		// large up-front allocation just to fail the read).
		return nil, 0, ReasonTruncated, fmt.Errorf("claims %d bytes with %d remaining", n, d.remain)
	}
	if payload, err = readFrame(d.r, buf, n); err != nil {
		return nil, 0, ReasonTruncated, fmt.Errorf("payload: %v", err)
	}
	took(n)
	if !d.indexed {
		return payload, 0, "", nil
	}
	crc = frameCRC(payload)
	if _, err := io.ReadFull(d.r, word); err != nil {
		return payload, crc, ReasonTruncated, fmt.Errorf("checksum truncated: %v", err)
	}
	took(4)
	if binary.LittleEndian.Uint32(word) != crc {
		return payload, crc, ReasonBadCRC, errors.New("checksum mismatch")
	}
	return payload, crc, "", nil
}

// readFrame reads exactly n payload bytes into buf (grown as needed),
// allocating in bounded steps so a lying length prefix on a truncated
// stream cannot demand the full claim up front. The result is never nil,
// even for n = 0: a nil payload means "fill job" to the decode workers.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	if buf == nil {
		buf = []byte{}
	}
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

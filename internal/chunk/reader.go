package chunk

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// sequentially from any io.Reader (formats v2 and v3), decodes chunks in
// parallel on the package's pipe, and hands each decoded chunk to a
// callback. Peak decoded data in flight is bounded by workers x chunk
// size — never the volume.
type Reader struct {
	layout
	r io.Reader

	volDims   grid.Dims
	chunkDims grid.Dims
	chunks    []grid.Chunk
	workers   int

	consumed bool
	ctx      context.Context // see SetContext

	remain int64   // input bytes past the header when seekable, else -1
	word   [4]byte // nextFrame's length-prefix / checksum read buffer

	peak int // ForEach's most decoded samples in flight
}

// NewReader parses the container's fixed header from r and prepares a
// streaming decode. workers <= 0 means GOMAXPROCS.
func NewReader(r io.Reader, workers int) (*Reader, error) {
	var hdr [fixedHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	d := &Reader{r: r, workers: workers, ctx: context.Background(), remain: -1}
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
// done, ForEach reads no further frame, starts no further decode and
// delivers nothing more, and returns ctx's error promptly instead of
// draining the container. Call it before ForEach. The zero state never
// cancels.
func (d *Reader) SetContext(ctx context.Context) { d.ctx = ctx }

// PeakInFlightSamples reports the maximum number of decoded samples alive
// at any one time during ForEach — at most workers x chunk size. It is
// set when ForEach returns.
func (d *Reader) PeakInFlightSamples() int { return d.peak }

// ForEach streams every chunk of the container through fn: frames are
// read sequentially on the calling goroutine, decoded in parallel, and fn
// is invoked once per chunk with its geometry and decoded samples. fn
// runs on the calling goroutine, one chunk at a time, in no set order;
// data aliases a decode arena — copy out before returning. An fn error
// stops the decode and is returned. The first damaged byte fails the
// whole decode with ErrCorrupt; a damaged container is read through
// Salvage instead. ForEach consumes the Reader; it can be called once.
func (d *Reader) ForEach(fn func(index int, ch grid.Chunk, data []float64) error) error {
	return d.forEach(fn, false)
}

// ForEachParallel is ForEach with fn called by each decode as it finishes,
// on its goroutine, up to workers at once: for callers that put each chunk
// in a place of its own, where a copy in ForEach's fn idles a decode slot.
// fn must be safe for concurrent use; after a failed call, decodes already
// running may still call it, and after ctx is done none does.
func (d *Reader) ForEachParallel(fn func(index int, ch grid.Chunk, data []float64) error) error {
	return d.forEach(fn, true)
}

// forEach is ForEach, with fn on the decode goroutines when parallel.
func (d *Reader) forEach(fn func(index int, ch grid.Chunk, data []float64) error, parallel bool) error {
	if d.consumed {
		return fmt.Errorf("chunk: Reader already consumed")
	}
	d.consumed = true
	maxFrame := maxFrameBytes(d.chunks)
	deliver := func(r decoded) error {
		if r.err != nil || parallel {
			return r.err
		}
		return fn(r.k, d.chunks[r.k], r.data)
	}
	p := newPipe[decoded](d.ctx, d.workers, len(d.chunks))

	// Read frames sequentially, recording what the index footer
	// must later corroborate: entries always, and on tagged layouts the
	// frame codec tags the footer's codec map must mirror.
	entries := make([]indexEntry, len(d.chunks))
	var tags []codec.CodecID
	if d.tagged {
		tags = make([]codec.CodecID, len(d.chunks))
	}
	off := uint64(fixedHeaderSize)
	for i, ch := range d.chunks {
		ws := p.slot(deliver)
		if ws == nil {
			break
		}
		payload, crc, err := d.nextFrame(ws.frame, maxFrame)
		if err != nil {
			p.abort(ws, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err))
			break
		}
		ws.frame = payload
		entries[i] = indexEntry{offset: off, length: uint32(len(payload)), crc: crc}
		off += uint64(frameOverhead + len(payload))
		if d.tagged && len(payload) > 0 {
			tags[i] = codec.CodecID(payload[0])
		}
		p.submit(ws, ch.Dims.Len(), func(ws *workerScratch) decoded {
			data, err := d.decode(ws.frame, ch.Dims, ws.codec)
			switch {
			case err != nil:
				err = fmt.Errorf("chunk %d: %w", i, err)
			case parallel:
				if err = d.ctx.Err(); err == nil {
					err = fn(i, ch, data)
				}
			}
			return decoded{i, data, err}
		})
	}
	err := p.wait(deliver)
	d.peak = p.peak
	if err != nil {
		return err
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

// nextFrame reads the next frame from the input into buf (grown as
// needed): length prefix, payload, and the trailing checksum, which must
// match. It returns the payload and its CRC.
func (d *Reader) nextFrame(buf []byte, maxFrame int) (payload []byte, crc uint32, err error) {
	word := d.word[:]
	if _, err := io.ReadFull(d.r, word); err != nil {
		return nil, 0, fmt.Errorf("truncated length prefix: %v", err)
	}
	n := int(binary.LittleEndian.Uint32(word))
	if n > maxFrame {
		return nil, 0, fmt.Errorf("claims %d bytes (cap %d)", n, maxFrame)
	}
	if d.remain >= 0 {
		// The input's size is known: a claim beyond it is rejected before
		// anything is allocated (a forged prefix must not drive a large
		// up-front allocation just to fail the read).
		if d.remain -= 4; int64(n) > d.remain {
			return nil, 0, fmt.Errorf("claims %d bytes with %d remaining", n, d.remain)
		}
		d.remain -= int64(n + 4)
	}
	if payload, err = readFrame(d.r, buf, n); err != nil {
		return nil, 0, fmt.Errorf("payload: %v", err)
	}
	crc = frameCRC(payload)
	if _, err := io.ReadFull(d.r, word); err != nil {
		return nil, 0, fmt.Errorf("checksum truncated: %v", err)
	}
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
		step := min(n-len(buf), readChunkMax)
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

package server

import (
	"fmt"
	"io"
	"sync"

	"sperr/internal/rawio"
)

// regionAssembler turns out-of-order chunk-piece deliveries into an
// ordered row-major byte stream for an arbitrary region box, so a
// response can be written to a socket (which cannot seek) without
// materializing the region. Pieces land in per-z-band buffers — a band
// is the intersection of the region with one chunk-height row of the
// volume's chunk grid — and a band is flushed the moment its last piece
// arrives and every earlier band is out. Peak buffering is the bands
// spanned by the in-flight piece set, never the region.
//
// The full-volume decompress path is the special case origin = (0,0,0),
// dims = volume dims, fed whole chunks by the streaming Decoder; the
// cluster scatter-gather path feeds it chunk∩region intersections as
// peers answer.
//
// add is safe for concurrent use; the float narrowing/serialization
// into the band buffer runs outside the lock, in parallel, on disjoint
// byte ranges.
//
// Band buffers come from bandPool and go back to it the moment they are
// written out, uncleared: a band flushes only once each of its pieces has
// written every one of its bytes, so no byte of an earlier response can
// reach the socket.
type regionAssembler struct {
	w      io.Writer
	origin [3]int // region box, volume coordinates
	dims   [3]int
	cz     int // chunk grid z pitch
	gz0    int // first grid z cell the region touches
	width  int // output bytes per sample (4 or 8)

	perBand int // chunk pieces per band (constant for a box region)

	mu    sync.Mutex
	next  int       // next band index to flush
	bufs  []*[]byte // band b's buffer, nil until its first piece
	wrote []int     // pieces of band b written
}

// bandPool recycles band buffers (*[]byte) of up to maxPooledBand bytes
// across requests. The cap holds the f64 band of a 90² cutout in 64-high
// chunks; larger bands are rare enough to allocate.
var bandPool sync.Pool

const maxPooledBand = 4 << 20

// getBand returns a buffer of n bytes with stale contents.
func getBand(n int) *[]byte {
	if n <= maxPooledBand {
		if p, ok := bandPool.Get().(*[]byte); ok && cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	b := make([]byte, n)
	return &b
}

// newRegionAssembler assembles the box origin+dims of a volume tiled by
// chunkDims over volDims. chunkDims components are clamped to the
// volume extent, mirroring the engine's tiling.
func newRegionAssembler(w io.Writer, origin, dims, volDims, chunkDims [3]int, width int) *regionAssembler {
	var c [3]int
	for a := 0; a < 3; a++ {
		c[a] = chunkDims[a]
		if c[a] > volDims[a] {
			c[a] = volDims[a]
		}
	}
	cell := func(a, v int) int { return v / c[a] }
	perBand := (cell(0, origin[0]+dims[0]-1) - cell(0, origin[0]) + 1) *
		(cell(1, origin[1]+dims[1]-1) - cell(1, origin[1]) + 1)
	gz0 := cell(2, origin[2])
	nBands := cell(2, origin[2]+dims[2]-1) - gz0 + 1
	return &regionAssembler{
		w:       w,
		origin:  origin,
		dims:    dims,
		cz:      c[2],
		gz0:     gz0,
		width:   width,
		perBand: perBand,
		bufs:    make([]*[]byte, nBands),
		wrote:   make([]int, nBands),
	}
}

// bandBounds returns band b's z range within the region.
func (ra *regionAssembler) bandBounds(b int) (zlo, zhi int) {
	zlo = (ra.gz0 + b) * ra.cz
	if o := ra.origin[2]; o > zlo {
		zlo = o
	}
	zhi = (ra.gz0 + b + 1) * ra.cz
	if e := ra.origin[2] + ra.dims[2]; e < zhi {
		zhi = e
	}
	return zlo, zhi
}

// add serializes one chunk piece (origin o, extent d, samples x-fastest,
// already clipped to the region) into its band and flushes any bands
// that just became contiguous with the output cursor.
func (ra *regionAssembler) add(o, d [3]int, samples []float64) error {
	return ra.addSlab(o, d, o, d, samples)
}

// addSlab is add for a piece that is still inside a larger slab: the box
// o+d of the x-fastest slab so+sd, which is only read (it may be the
// decoded cache's own memory).
func (ra *regionAssembler) addSlab(o, d, so, sd [3]int, slab []float64) error {
	b, buf := ra.band(o)
	line := ra.dims[0] * ra.width
	for z := 0; z < d[2]; z++ {
		for y := 0; y < d[1]; y++ {
			src := ((o[2]-so[2]+z)*sd[1]+o[1]-so[1]+y)*sd[0] + o[0] - so[0]
			rawio.PutFloats(buf[(z*ra.dims[1]+y)*line:], slab[src:src+d[0]], ra.width)
		}
	}
	return ra.pieceDone(b)
}

// addWire is add for a piece still on a peer connection: r yields the
// piece's 8·n little-endian float64 bytes, which land in the band row by
// row — as they are at width 8, narrowed through one row buffer at width
// 4. A read error leaves the band's piece count alone, so a band holding
// a half-written piece cannot flush; whoever delivers the piece next
// rewrites every row of it.
func (ra *regionAssembler) addWire(o, d [3]int, r io.Reader) error {
	b, buf := ra.band(o)
	line := ra.dims[0] * ra.width
	var row []byte
	var vals []float64
	if ra.width == 4 {
		row, vals = make([]byte, 8*d[0]), make([]float64, d[0])
	}
	for z := 0; z < d[2]; z++ {
		for y := 0; y < d[1]; y++ {
			off := (z*ra.dims[1] + y) * line
			if ra.width == 8 {
				if _, err := io.ReadFull(r, buf[off:off+8*d[0]]); err != nil {
					return err
				}
				continue
			}
			if _, err := io.ReadFull(r, row); err != nil {
				return err
			}
			rawio.GetFloats(vals, row, 8)
			rawio.PutFloats(buf[off:], vals, 4)
		}
	}
	return ra.pieceDone(b)
}

// band returns the index of the band a piece at origin o belongs to and
// the band's buffer from the piece's first sample on, drawing the buffer
// on the band's first piece.
func (ra *regionAssembler) band(o [3]int) (int, []byte) {
	b := o[2]/ra.cz - ra.gz0
	zlo, zhi := ra.bandBounds(b)
	ra.mu.Lock()
	p := ra.bufs[b]
	if p == nil {
		p = getBand(ra.dims[0] * ra.dims[1] * min(ra.cz, ra.dims[2]) * ra.width) // the tallest band
		*p = (*p)[:ra.dims[0]*ra.dims[1]*(zhi-zlo)*ra.width]
		ra.bufs[b] = p
	}
	ra.mu.Unlock()
	return b, (*p)[(((o[2]-zlo)*ra.dims[1]+o[1]-ra.origin[1])*ra.dims[0]+o[0]-ra.origin[0])*ra.width:]
}

// pieceDone counts one completed piece of band b and flushes every band
// that is now contiguous with the output cursor, recycling each buffer
// once it is written.
func (ra *regionAssembler) pieceDone(b int) error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.wrote[b]++
	for ra.next < len(ra.bufs) && ra.wrote[ra.next] == ra.perBand {
		p := ra.bufs[ra.next]
		if _, err := ra.w.Write(*p); err != nil {
			return err
		}
		ra.bufs[ra.next] = nil
		if cap(*p) <= maxPooledBand {
			bandPool.Put(p) // nothing touches p after
		}
		ra.next++
	}
	return nil
}

// done verifies every band was flushed.
func (ra *regionAssembler) done() error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if n := len(ra.bufs); ra.next != n {
		return fmt.Errorf("server: %d of %d output bands unflushed", n-ra.next, n)
	}
	return nil
}

package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
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
type regionAssembler struct {
	w      io.Writer
	origin [3]int // region box, volume coordinates
	dims   [3]int
	cz     int // chunk grid z pitch
	gz0    int // first grid z cell the region touches
	width  int // output bytes per sample (4 or 8)

	perBand int // chunk pieces per band (constant for a box region)
	nBands  int

	mu   sync.Mutex
	next int // next band index to flush
	bufs map[int][]byte
	left map[int]int
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
	return &regionAssembler{
		w:       w,
		origin:  origin,
		dims:    dims,
		cz:      c[2],
		gz0:     gz0,
		width:   width,
		perBand: perBand,
		nBands:  cell(2, origin[2]+dims[2]-1) - gz0 + 1,
		bufs:    make(map[int][]byte),
		left:    make(map[int]int),
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
			putRow(buf[(z*ra.dims[1]+y)*line:], slab[src:src+d[0]], ra.width)
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
	if ra.width == 4 {
		row = make([]byte, 8*d[0])
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
			for x := 0; x < d[0]; x++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(row[8*x:]))
				binary.LittleEndian.PutUint32(buf[off+4*x:], math.Float32bits(float32(v)))
			}
		}
	}
	return ra.pieceDone(b)
}

// band returns the index of the band a piece at origin o belongs to and
// the band's buffer from the piece's first sample on, allocating the
// buffer on the band's first piece.
func (ra *regionAssembler) band(o [3]int) (int, []byte) {
	b := o[2]/ra.cz - ra.gz0
	zlo, zhi := ra.bandBounds(b)
	ra.mu.Lock()
	buf, ok := ra.bufs[b]
	if !ok {
		buf = make([]byte, ra.dims[0]*ra.dims[1]*(zhi-zlo)*ra.width)
		ra.bufs[b] = buf
		ra.left[b] = ra.perBand
	}
	ra.mu.Unlock()
	return b, buf[(((o[2]-zlo)*ra.dims[1]+o[1]-ra.origin[1])*ra.dims[0]+o[0]-ra.origin[0])*ra.width:]
}

// pieceDone counts one completed piece of band b and flushes every band
// that is now contiguous with the output cursor.
func (ra *regionAssembler) pieceDone(b int) error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.left[b]--
	for ra.next < ra.nBands && ra.left[ra.next] == 0 {
		if _, ok := ra.bufs[ra.next]; !ok {
			break // zero count but never allocated: not this band yet
		}
		if _, err := ra.w.Write(ra.bufs[ra.next]); err != nil {
			return err
		}
		delete(ra.bufs, ra.next)
		delete(ra.left, ra.next)
		ra.next++
	}
	return nil
}

// done verifies every band was flushed.
func (ra *regionAssembler) done() error {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if ra.next != ra.nBands {
		return fmt.Errorf("server: %d of %d output bands unflushed", ra.nBands-ra.next, ra.nBands)
	}
	return nil
}

// putRow serializes a row of samples as little-endian floats of the given
// width (4 narrows to float32).
func putRow(dst []byte, vals []float64, width int) {
	if width == 4 {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(float32(v)))
		}
		return
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// Package speck implements the SPECK set-partitioning embedded block coder
// (Pearlman et al.) with the SPERR extensions of paper Section III:
// arbitrary (non power-of-two) quantization thresholds, a dead zone of
// [-q, q], mid-riser reconstruction, and both quality-bounded and
// size-bounded termination.
//
// The coder walks the wavelet coefficient volume bitplane by bitplane with
// thresholds q*2^n for n = nmax .. 0. Each sorting pass locates newly
// significant coefficients by recursive octree (3D) / quadtree (2D) set
// partitioning whose split points coincide with the dyadic wavelet subband
// boundaries (boxes split at ceil(len/2), matching the approximation-band
// length rule of the transform). Each refinement pass appends one bit of
// precision to every previously significant coefficient.
//
// The output bitstream is embedded: any prefix decodes to a valid, coarser
// reconstruction, which is what enables size-bounded (fixed-rate)
// compression and progressive access (paper Sections III-B and VII).
package speck

import (
	"math"

	"sperr/internal/bits"
	"sperr/internal/grid"
)

// set is a rectangular box of coefficients taking part in significance
// tests. A set whose extent is 1x1x1 is a single coefficient.
type set struct {
	x, y, z    int32
	nx, ny, nz int32
}

func (s *set) single() bool { return s.nx == 1 && s.ny == 1 && s.nz == 1 }

// pixel is one significant coefficient the general decoder is refining.
type pixel struct {
	pos int32
	val float64 // reconstruction magnitude
	neg bool
}

// NumPlanes returns the number of bitplanes (nmax+1) that the coder will
// emit for the given base step q and maximum coefficient magnitude: nmax is
// the largest n >= 0 with q*2^n <= maxMag. It returns 0 when every
// coefficient lies inside the dead zone (maxMag < q), and when maxMag is
// not finite: a transform that overflowed leaves nothing to code.
func NumPlanes(maxMag, q float64) int {
	if !(maxMag >= q) || !(q > 0) || math.IsInf(maxMag, 1) {
		return 0
	}
	// maxMag/q lies in (2^(em-eq-1), 2^(em-eq+1)), and each q*2^n is exact
	// or overflows to +Inf, so at most two compares settle nmax.
	_, em := math.Frexp(maxMag)
	_, eq := math.Frexp(q)
	n := max(em-eq-1, 0)
	for math.Ldexp(q, n+1) <= maxMag {
		n++
	}
	return n + 1
}

// Result carries the encoder output.
type Result struct {
	Stream    []byte // packed bitstream (padded to a byte)
	Bits      uint64 // exact number of meaningful bits in Stream
	NumPlanes int    // bitplanes encoded (decoder needs this to align)
	MaxMag    float64
	// Q is the step the stream is coded at, which the decoder needs: the
	// requested q, or q raised by Encode's resolution clamp.
	Q float64

	// PlaneBits[i] is the bit position after plane i completed;
	// PlaneErr2Scratch gives the summed squared coefficient-domain error
	// of the reconstruction a decoder would produce from that prefix.
	// The scaled CDF 9/7 basis is near-orthogonal, so this estimates the
	// data-domain L2 error without an inverse transform — what the paper's
	// Section VII flags as enabling average-error-targeted compression.
	PlaneBits []uint64
}

// Scratch pools the reusable per-call state of the SPECK encoder and
// decoders: pixel records, LIS buckets, LSP slices, the raw bit writer and
// reader, and the decoder's output buffer. A zero Scratch is
// ready to use; buffers grow on demand and are retained across calls so a
// worker that codes many chunks reaches a steady state with no per-chunk
// heap allocation. A Scratch is not safe for concurrent use.
//
// Results returned by EncodeScratch and slices returned by DecodeScratch
// alias the scratch and stay valid only until its next use.
type Scratch struct {
	lis       [][]set
	lsp       []pixel
	lspNew    []pixel
	w         *bits.Writer
	r         bits.Reader
	planeBits []uint64
	planeErr2 []float64
	out       []float64
	// Integer-path pools (see intpath.go, intdec.go).
	pixI  []cpix
	lisI  [][]int32
	lisTI [][]uint8
	lspI  []int32
	refI  []uint64 // encoder: refinement bit-plane slices
	trees []*octree
	topsT []uint8
	recon reconTab
	// Whether the last call on the scratch was an encode whose pixI/lspI
	// nothing has reused since (intEnc), and whether its stream was
	// untruncated (canReplay); see ReplayScratch and PlaneErr2Scratch.
	intEnc, canReplay bool
	encQ              float64
	encN, encPlanes   int
	// Grows counts buffer (re)allocations; a warmed-up scratch stops
	// growing.
	Grows int
}

// pooled returns buf resized to n, contents stale, reallocating — and
// counting the growth — only when its capacity falls short.
func pooled[T any](buf []T, n int, grows *int) []T {
	if cap(buf) < n {
		*grows++
		return make([]T, n)
	}
	return buf[:n]
}

// resetLIS truncates every pooled LIS bucket, keeping capacity, and
// guarantees at least one bucket exists.
func (s *Scratch) resetLIS() [][]set {
	for i := range s.lis {
		s.lis[i] = s.lis[i][:0]
	}
	if len(s.lis) == 0 {
		s.lis = make([][]set, 1, 16)
		s.Grows++
	}
	return s.lis
}

// Encode codes coeffs (row-major, extent dims, at most maxOctreeLen of
// them) with base quantization step q > 0. If maxBits > 0 the stream is
// truncated to at most maxBits bits (size-bounded mode); otherwise every
// bitplane down to threshold q is emitted (quality-bounded mode, max
// coefficient error q/2 plus dead zone).
//
// The step is clamped to float64 resolution: a subnormal q is raised to
// the smallest normal, and a q that would need more than maxPlanes planes
// is raised by the power of two that leaves exactly maxPlanes, so the
// thresholds are the top maxPlanes of q's own. Result.Q reports the step
// used; a caller that bounds a point-wise error downstream (the codec's
// outlier stage) absorbs the coarser coefficients.
func Encode(coeffs []float64, dims grid.Dims, q float64, maxBits uint64) *Result {
	return encode(coeffs, dims, q, maxBits, nil)
}

// EncodeScratch is Encode with pooled buffers. The returned Result aliases
// s (stream, plane records) and is valid until the next use of s. Output
// is byte-identical to Encode's.
func EncodeScratch(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, s *Scratch) *Result {
	return encode(coeffs, dims, q, maxBits, s)
}

// EncodeScratchWorkers is EncodeScratch; workers is ignored. It remains
// only because bench/trace.go calls it by name, and goes when ROADMAP
// item 1 rewrites that caller. Production code calls EncodeScratch.
func EncodeScratchWorkers(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, workers int, s *Scratch) *Result {
	return EncodeScratch(coeffs, dims, q, maxBits, s)
}

// maxPlanes is the deepest stream Encode writes: every quantized magnitude
// floor(|c|/q) stays below 2^52, where intpath.go's quotient is exact, and
// the step is already within two float64 ulps of the largest coefficient.
const maxPlanes = 52

func encode(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, s *Scratch) *Result {
	n := dims.Len()
	if len(coeffs) != n {
		panic("speck: coefficient count does not match dims")
	}
	if n > maxOctreeLen {
		panic("speck: volume exceeds maxOctreeLen coefficients")
	}
	if s == nil {
		s = &Scratch{}
	}
	var maxMag float64
	for _, c := range coeffs {
		if m := math.Abs(c); m > maxMag || m != m {
			maxMag = m
		}
	}
	q = max(q, 0x1p-1022)
	planes := NumPlanes(maxMag, q)
	if planes > maxPlanes {
		q = math.Ldexp(q, planes-maxPlanes)
		planes = maxPlanes
	}
	if planes == 0 {
		// Every coefficient lies in the dead zone, or the transform
		// overflowed: the stream is empty and decodes (and replays) to zeros.
		s.planeBits, s.planeErr2 = s.planeBits[:0], s.planeErr2[:0]
		s.intEnc, s.canReplay = true, true
		s.encQ, s.encN, s.encPlanes = q, n, 0
		return &Result{MaxMag: maxMag, Q: q}
	}
	return encodeInt(coeffs, dims, q, maxBits, planes, maxMag, s)
}

// writer returns the scratch's pooled bit writer, reset.
func (s *Scratch) writer(n int) *bits.Writer {
	if s.w == nil {
		s.w = bits.NewWriter(n / 2)
		s.Grows++
	} else {
		s.w.Reset()
	}
	return s.w
}

// finish returns the writer's stream cut to the budget. The stream is the
// writer's internal buffer, not a copy: it stays valid until the writer is
// Reset (scratch reuse copies it into the chunk payload before then).
func finish(w *bits.Writer, maxBits uint64) ([]byte, uint64) {
	stream, bitsUsed := w.Close(), w.Len()
	if maxBits > 0 && bitsUsed > maxBits {
		bitsUsed = maxBits
	}
	if need := int((bitsUsed + 7) / 8); need < len(stream) {
		stream = stream[:need]
	}
	return stream, bitsUsed
}

// splitSet divides a box into children by splitting every axis longer than
// one sample at ceil(len/2), writing them into dst and returning the
// count. The low half comes first, matching the approximation-band layout
// of the wavelet transform so that sets align with subbands at every
// recursion depth. dst is caller-provided (stack) storage so the hot
// partitioning path performs no heap allocation.
func splitSet(s *set, dst *[8]set) int {
	var xs, ys, zs [2][2]int32
	nx := splitAxis(s.x, s.nx, &xs)
	ny := splitAxis(s.y, s.ny, &ys)
	nz := splitAxis(s.z, s.nz, &zs)
	k := 0
	for zi := 0; zi < nz; zi++ {
		for yi := 0; yi < ny; yi++ {
			for xi := 0; xi < nx; xi++ {
				dst[k] = set{
					x: xs[xi][0], nx: xs[xi][1],
					y: ys[yi][0], ny: ys[yi][1],
					z: zs[zi][0], nz: zs[zi][1],
				}
				k++
			}
		}
	}
	return k
}

// splitAxis writes the (origin, length) pairs after splitting an axis at
// ceil(n/2) into dst and returns the count; axes of length 1 are not
// split.
func splitAxis(o, n int32, dst *[2][2]int32) int {
	if n <= 1 {
		dst[0] = [2]int32{o, n}
		return 1
	}
	half := (n + 1) / 2
	dst[0] = [2]int32{o, half}
	dst[1] = [2]int32{o + half, n - half}
	return 2
}

// Decode reconstructs coefficients from a SPECK bitstream. bitsAvail limits
// how many bits are consumed (pass res.Bits for a full decode, or fewer for
// progressive reconstruction of a truncated stream); planes must equal the
// encoder's Result.NumPlanes. The returned slice has dims.Len() entries.
func Decode(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int) []float64 {
	return decode(stream, bitsAvail, dims, q, planes, nil)
}

// DecodeScratch is Decode with pooled buffers. The returned slice aliases
// s and is valid until the next use of s.
func DecodeScratch(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int, s *Scratch) []float64 {
	return decode(stream, bitsAvail, dims, q, planes, s)
}

// DecodeScratchWorkers is DecodeScratch; workers is ignored. It remains
// only because bench/trace.go calls it by name, and goes when ROADMAP
// item 1 rewrites that caller. Production code calls DecodeScratch.
func DecodeScratchWorkers(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int, workers int, s *Scratch) []float64 {
	return DecodeScratch(stream, bitsAvail, dims, q, planes, s)
}

func decode(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int, s *Scratch) []float64 {
	if s == nil {
		s = &Scratch{}
	}
	s.intEnc, s.canReplay = false, false // lspI and the out buffer are being repurposed
	if planes > 0 && planes <= 64 && dims.Len() <= maxOctreeLen {
		// Phase-separated fast path (intdec.go). The general decoder below
		// is the only path for planes <= 0, more than 64 planes, volumes
		// above maxOctreeLen, and streams that run out mid-pass (size-bounded
		// chunks, DecompressPartial, corrupt input), whose half-applied
		// plane the fast path cannot represent.
		if out, ok := decodeFast(stream, bitsAvail, dims, q, planes, s); ok {
			return out
		}
	}
	s.r.Reset(stream, bitsAvail)
	d := &decoder{
		dims: dims,
		r:    &s.r,
	}
	d.lis = s.resetLIS()
	d.nd = 1
	d.lsp = s.lsp[:0]
	d.lspNew = s.lspNew[:0]
	s.out = pooled(s.out, dims.Len(), &s.Grows)
	out := s.out
	clear(out)
	defer func() {
		s.lis = d.lis
		s.lsp = d.lsp
		s.lspNew = d.lspNew
	}()
	if planes <= 0 {
		return out
	}
	d.run(q, planes)
	for _, p := range d.lsp {
		v := p.val
		if p.neg {
			v = -v
		}
		out[p.pos] = v
	}
	// Pixels discovered but never refined still carry their initial
	// estimate; lspNew may be non-empty if the stream ended mid-pass.
	for _, p := range d.lspNew {
		v := p.val
		if p.neg {
			v = -v
		}
		out[p.pos] = v
	}
	return out
}

type decoder struct {
	dims grid.Dims
	r    *bits.Reader

	lis    [][]set
	nd     int // number of active buckets (depths) in lis
	lsp    []pixel
	lspNew []pixel
}

// ensureDepth mirrors the encoder's bucket management.
func (d *decoder) ensureDepth(depth int) {
	for len(d.lis) <= depth {
		d.lis = append(d.lis, nil)
	}
	if d.nd <= depth {
		d.nd = depth + 1
	}
}

func (d *decoder) run(q float64, planes int) {
	root := set{nx: int32(d.dims.NX), ny: int32(d.dims.NY), nz: int32(d.dims.NZ)}
	d.lis[0] = append(d.lis[0], root)
	for n := planes - 1; n >= 0; n-- {
		thr := q * math.Pow(2, float64(n))
		if !d.sortingPass(thr) {
			return
		}
		if !d.refinementPass(thr) {
			return
		}
	}
}

// sortingPass mirrors the encoder's traversal, with significance decisions
// read from the stream. It returns false when the stream is exhausted.
func (d *decoder) sortingPass(thr float64) bool {
	for depth := d.nd - 1; depth >= 0; depth-- {
		bucket := d.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			sig := d.r.ReadBit()
			if d.r.Exhausted() {
				// Keep the remaining entries untouched so state stays sane.
				kept = append(kept, bucket[i:]...)
				d.lis[depth] = kept
				return false
			}
			if sig {
				if !d.descend(&s, depth, thr) {
					d.lis[depth] = append(kept, bucket[i+1:]...)
					return false
				}
			} else {
				kept = append(kept, s)
			}
		}
		d.lis[depth] = kept
	}
	return true
}

// descend handles a set just established as significant, mirroring the
// encoder's traversal including the implied-significance saving for the
// last child of an otherwise-insignificant brood.
func (d *decoder) descend(s *set, depth int, thr float64) bool {
	if s.single() {
		neg := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		pos := int32(d.dims.Index(int(s.x), int(s.y), int(s.z)))
		d.lspNew = append(d.lspNew, pixel{pos: pos, val: 1.5 * thr, neg: neg})
		return true
	}
	var children [8]set
	k := splitSet(s, &children)
	childDepth := depth + 1
	d.ensureDepth(childDepth)
	anySig := false
	for i := 0; i < k; i++ {
		c := &children[i]
		if i == k-1 && !anySig {
			// Implied significant: the encoder emitted no bit.
			return d.descend(c, childDepth, thr)
		}
		sig := d.r.ReadBit()
		if d.r.Exhausted() {
			// Remaining children were never coded this pass; keep them in
			// LIS so their values stay zero.
			for j := i; j < k; j++ {
				d.lis[childDepth] = append(d.lis[childDepth], children[j])
			}
			return false
		}
		if sig {
			anySig = true
			if !d.descend(c, childDepth, thr) {
				for j := i + 1; j < k; j++ {
					d.lis[childDepth] = append(d.lis[childDepth], children[j])
				}
				return false
			}
		} else {
			d.lis[childDepth] = append(d.lis[childDepth], *c)
		}
	}
	return true
}

func (d *decoder) refinementPass(thr float64) bool {
	half := thr / 2
	if d.r.Remaining() >= uint64(len(d.lsp)) {
		// The whole pass fits the budget: read refinement bits a word at a
		// time. Per-pixel updates are unchanged, so reconstruction values
		// are identical to the per-bit path.
		i := 0
		for ; i+64 <= len(d.lsp); i += 64 {
			word := d.r.ReadBits(64)
			for j := 0; j < 64; j++ {
				p := &d.lsp[i+j]
				if word&1 != 0 {
					p.val += half
				} else {
					p.val -= half
				}
				word >>= 1
			}
		}
		if rem := len(d.lsp) - i; rem > 0 {
			word := d.r.ReadBits(uint(rem))
			for j := 0; j < rem; j++ {
				p := &d.lsp[i+j]
				if word&1 != 0 {
					p.val += half
				} else {
					p.val -= half
				}
				word >>= 1
			}
		}
		d.lsp = append(d.lsp, d.lspNew...)
		d.lspNew = d.lspNew[:0]
		return true
	}
	// A truncated stream ends inside this pass: read bit by bit up to the
	// cut.
	for i := range d.lsp {
		b := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		p := &d.lsp[i]
		if b {
			p.val += half
		} else {
			p.val -= half
		}
	}
	d.lsp = append(d.lsp, d.lspNew...)
	d.lspNew = d.lspNew[:0]
	return true
}

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
// tests. A set whose extent is 1x1x1 is a single coefficient. max caches
// the maximum magnitude inside the box (encoder side only) so that
// per-bitplane significance tests are O(1).
type set struct {
	x, y, z    int32
	nx, ny, nz int32
	max        float64
}

func (s *set) single() bool { return s.nx == 1 && s.ny == 1 && s.nz == 1 }

// pixel is one significant coefficient being progressively refined.
type pixel struct {
	pos int32
	val float64 // encoder: remaining residual; decoder: reconstruction value
	neg bool    // decoder: sign
}

// NumPlanes returns the number of bitplanes (nmax+1) that the coder will
// emit for the given base step q and maximum coefficient magnitude: nmax is
// the largest n >= 0 with q*2^n <= maxMag. It returns 0 when every
// coefficient lies inside the dead zone (maxMag < q).
func NumPlanes(maxMag, q float64) int {
	if maxMag < q || q <= 0 {
		return 0
	}
	n := int(math.Floor(math.Log2(maxMag / q)))
	// Guard against floating-point edge cases near exact powers of two.
	for q*math.Pow(2, float64(n+1)) <= maxMag {
		n++
	}
	for n >= 0 && q*math.Pow(2, float64(n)) > maxMag {
		n--
	}
	if n < 0 {
		return 0
	}
	return n + 1
}

// Result carries the encoder output.
type Result struct {
	Stream    []byte // packed bitstream (padded to a byte)
	Bits      uint64 // exact number of meaningful bits in Stream
	NumPlanes int    // bitplanes encoded (decoder needs this to align)
	MaxMag    float64

	// PlaneBits[i] is the bit position after plane i completed;
	// PlaneErr2Scratch gives the summed squared coefficient-domain error
	// of the reconstruction a decoder would produce from that prefix.
	// The scaled CDF 9/7 basis is near-orthogonal, so this estimates the
	// data-domain L2 error without an inverse transform — what the paper's
	// Section VII flags as enabling average-error-targeted compression.
	PlaneBits []uint64
}

// Scratch pools the reusable per-call state of SPECK encoders and
// decoders: magnitude/sign maps, LIS buckets, LSP slices, the raw bit
// writer and reader, and the decoder's output buffer. A zero Scratch is
// ready to use; buffers grow on demand and are retained across calls so a
// worker that codes many chunks reaches a steady state with no per-chunk
// heap allocation. A Scratch is not safe for concurrent use.
//
// Results returned by EncodeScratch and slices returned by DecodeScratch
// alias the scratch and stay valid only until its next use.
type Scratch struct {
	mags      []float64
	neg       []bool
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
	// The last encode, if it took the integer path and nothing has reused
	// pixI/lspI since (intEnc), and whether its stream was untruncated
	// (canReplay); see ReplayScratch and PlaneErr2Scratch.
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

// Encode codes coeffs (row-major, extent dims) with base quantization step
// q > 0. If maxBits > 0 the stream is truncated to at most maxBits bits
// (size-bounded mode); otherwise every bitplane down to threshold q is
// emitted (quality-bounded mode, max coefficient error q/2 plus dead zone).
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

func encode(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, s *Scratch) *Result {
	n := dims.Len()
	if len(coeffs) != n {
		panic("speck: coefficient count does not match dims")
	}
	if s == nil {
		s = &Scratch{}
	}
	s.intEnc, s.canReplay = false, false
	var maxMag float64
	for _, c := range coeffs {
		if m := math.Abs(c); m > maxMag {
			maxMag = m
		}
	}
	planes := NumPlanes(maxMag, q)
	if intPathEligible(q, planes) && dims.Len() <= maxOctreeLen {
		return encodeInt(coeffs, dims, q, maxBits, planes, maxMag, s)
	}
	return encodeFloat(coeffs, dims, q, maxBits, maxMag, planes, s)
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

// encodeFloat is the reference float-residual traversal. encode reaches
// it only when the integer path cannot run: planes == 0 (everything in the
// dead zone), planes > 52 or subnormal q (intPathEligible's exactness
// preconditions), or a volume above maxOctreeLen. It is also the oracle
// the integer path is tested against.
func encodeFloat(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, maxMag float64, planes int, s *Scratch) *Result {
	n := dims.Len()
	e := &encoder{
		dims: dims,
		w:    s.writer(n),
		budget: func() uint64 {
			if maxBits == 0 {
				return math.MaxUint64
			}
			return maxBits
		}(),
	}
	e.setup(s, n)
	for i, c := range coeffs {
		e.mags[i] = math.Abs(c)
		e.neg[i] = math.Signbit(c)
	}
	if planes > 0 {
		e.run(q, planes)
	}
	e.save(s)
	stream, bitsUsed := finish(e.w, maxBits)
	return &Result{
		Stream: stream, Bits: bitsUsed, NumPlanes: planes, MaxMag: maxMag,
		PlaneBits: e.planeBits,
	}
}

type encoder struct {
	dims   grid.Dims
	mags   []float64
	neg    []bool
	w      *bits.Writer
	budget uint64

	lis    [][]set // buckets indexed by split depth; deeper = smaller sets
	nd     int     // number of active buckets (depths) in lis
	lsp    []pixel
	lspNew []pixel

	insigE2   float64 // summed v^2 of not-yet-significant coefficients
	planeBits []uint64
	planeErr2 []float64
}

// setup wires the encoder to pooled buffers from s.
func (e *encoder) setup(s *Scratch, n int) {
	if cap(s.mags) < n {
		s.mags = make([]float64, n)
		s.neg = make([]bool, n)
		s.Grows++
	}
	e.mags, e.neg = s.mags[:n], s.neg[:n]
	e.lis = s.resetLIS()
	e.nd = 1
	e.lsp = s.lsp[:0]
	e.lspNew = s.lspNew[:0]
	e.planeBits = s.planeBits[:0]
	e.planeErr2 = s.planeErr2[:0]
}

// save hands grown buffers back to the scratch for the next call.
func (e *encoder) save(s *Scratch) {
	s.lis = e.lis
	s.lsp = e.lsp
	s.lspNew = e.lspNew
	s.planeBits = e.planeBits
	s.planeErr2 = e.planeErr2
}

// ensureDepth makes bucket d usable, reusing pooled bucket arrays.
func (e *encoder) ensureDepth(d int) {
	for len(e.lis) <= d {
		e.lis = append(e.lis, nil)
	}
	if e.nd <= d {
		e.nd = d + 1
	}
}

func (e *encoder) run(q float64, planes int) {
	root := set{nx: int32(e.dims.NX), ny: int32(e.dims.NY), nz: int32(e.dims.NZ)}
	root.max = e.boxMax(&root)
	e.lis[0] = append(e.lis[0], root)
	for _, v := range e.mags {
		e.insigE2 += v * v
	}
	for n := planes - 1; n >= 0; n-- {
		thr := q * math.Pow(2, float64(n))
		e.sortingPass(thr)
		if e.w.Len() >= e.budget {
			return // embedded stream: the prefix up to budget is valid
		}
		e.refinementPass(thr)
		e.recordPlane(thr)
		if e.w.Len() >= e.budget {
			return
		}
	}
}

// recordPlane captures the bit offset and the exact coefficient-domain
// squared error of the reconstruction a decoder would produce from the
// stream prefix ending at this plane boundary.
func (e *encoder) recordPlane(thr float64) {
	err2 := e.insigE2
	half := thr / 2
	for i := range e.lsp {
		// After refinement at thr, the residual lies in [0, thr) and the
		// decoder sits at the interval midpoint.
		r := e.lsp[i].val - half
		err2 += r * r
	}
	e.planeBits = append(e.planeBits, e.w.Len())
	e.planeErr2 = append(e.planeErr2, err2)
}

func (e *encoder) boxMax(s *set) float64 {
	d := e.dims
	m := 0.0
	for z := s.z; z < s.z+s.nz; z++ {
		for y := s.y; y < s.y+s.ny; y++ {
			off := (int(z)*d.NY + int(y)) * d.NX
			row := e.mags[off+int(s.x) : off+int(s.x)+int(s.nx)]
			for _, v := range row {
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}

// sortingPass processes LIS buckets from smallest sets to largest
// ("increasing order of their sizes"). Children created by splitting are
// placed in deeper (already visited) buckets and processed immediately by
// recursion, so they are tested exactly once per pass.
func (e *encoder) sortingPass(thr float64) {
	for depth := e.nd - 1; depth >= 0; depth-- {
		if e.w.Len() >= e.budget {
			return // everything past the budget is truncated anyway
		}
		bucket := e.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			if s.max >= thr {
				e.processSignificant(&s, depth, thr)
				// significant: removed from LIS (not kept)
			} else {
				e.w.WriteBit(false)
				kept = append(kept, s)
			}
		}
		e.lis[depth] = kept
	}
}

// processSignificant emits the significance bit for s (known true on the
// encoder side) and descends.
func (e *encoder) processSignificant(s *set, depth int, thr float64) {
	e.w.WriteBit(true)
	e.descend(s, depth, thr)
}

// descend handles a set established as significant (bit already emitted or
// implied): a single coefficient joins the significant list, a larger set
// is partitioned.
func (e *encoder) descend(s *set, depth int, thr float64) {
	if s.single() {
		pos := int32(e.dims.Index(int(s.x), int(s.y), int(s.z)))
		e.w.WriteBit(e.neg[pos])
		e.lspNew = append(e.lspNew, pixel{pos: pos, val: e.mags[pos] - thr})
		e.insigE2 -= e.mags[pos] * e.mags[pos]
		return
	}
	e.code(s, depth, thr)
}

// code splits s into up to 8 children at the dyadic subband boundaries and
// processes each immediately; insignificant children enter LIS. A
// significant parent must have at least one significant child, so when
// every earlier sibling was insignificant the last child's significance is
// implied and its bit omitted (the classic Said-Pearlman saving, also in
// the reference SPERR implementation).
func (e *encoder) code(s *set, depth int, thr float64) {
	var children [8]set
	k := splitSet(s, &children)
	childDepth := depth + 1
	e.ensureDepth(childDepth)
	anySig := false
	for i := 0; i < k; i++ {
		c := &children[i]
		c.max = e.boxMax(c)
		sig := c.max >= thr
		if i == k-1 && !anySig {
			// Implied significant: no bit.
			e.descend(c, childDepth, thr)
			return
		}
		if sig {
			anySig = true
			e.processSignificant(c, childDepth, thr)
		} else {
			e.w.WriteBit(false)
			e.lis[childDepth] = append(e.lis[childDepth], *c)
		}
	}
}

func (e *encoder) refinementPass(thr float64) {
	for i := range e.lsp {
		p := &e.lsp[i]
		if p.val >= thr {
			e.w.WriteBit(true)
			p.val -= thr
		} else {
			e.w.WriteBit(false)
		}
	}
	e.lsp = append(e.lsp, e.lspNew...)
	e.lspNew = e.lspNew[:0]
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

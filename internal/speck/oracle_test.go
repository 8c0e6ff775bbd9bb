package speck

import (
	"math"

	"sperr/internal/bits"
	"sperr/internal/grid"
)

// The reference traversals: encodeFloat, the float-residual encoder the
// integer encoder is held to byte for byte (intpath.go argues why they
// agree), and decodeOracle, the list-based per-bit decoder the
// phase-separated one is held to bitwise at every cut.

// pixel is one significant coefficient of the reference traversals: the
// encoder's remaining residual, or the decoder's reconstruction
// magnitude.
type pixel struct {
	pos int32
	val float64
	neg bool
}

// encodeFloat codes at q as given, with no resolution clamp, so it also
// writes the >52-plane and subnormal-step streams Encode no longer
// produces, which Decode must still read up to 64 planes. It returns the
// Result and the per-plane squared-error record it keeps inline, which
// PlaneErr2Scratch must reproduce bitwise.
func encodeFloat(coeffs []float64, dims grid.Dims, q float64, maxBits uint64) (*Result, []float64) {
	n := dims.Len()
	var maxMag float64
	for _, c := range coeffs {
		maxMag = math.Max(maxMag, math.Abs(c))
	}
	planes := NumPlanes(maxMag, q)
	e := &encoder{
		dims:   dims,
		mags:   make([]float64, n),
		neg:    make([]bool, n),
		w:      bits.NewWriter(n / 2),
		budget: math.MaxUint64,
		lis:    make([][]oset, 1),
		nd:     1,
	}
	if maxBits > 0 {
		e.budget = maxBits
	}
	for i, c := range coeffs {
		e.mags[i] = math.Abs(c)
		e.neg[i] = math.Signbit(c)
	}
	if planes > 0 {
		e.run(q, planes)
	}
	stream, bitsUsed := finish(e.w, maxBits)
	return &Result{
		Stream: stream, Bits: bitsUsed, NumPlanes: planes, MaxMag: maxMag, Q: q,
		PlaneBits: e.planeBits,
	}, e.planeErr2
}

// oset is a set with its cached maximum magnitude, so per-bitplane
// significance tests are O(1).
type oset struct {
	set
	max float64
}

type encoder struct {
	dims   grid.Dims
	mags   []float64
	neg    []bool
	w      *bits.Writer
	budget uint64

	lis    [][]oset // buckets indexed by split depth; deeper = smaller sets
	nd     int      // number of active buckets (depths) in lis
	lsp    []pixel  // val is the remaining residual
	lspNew []pixel

	insigE2   float64 // summed v^2 of not-yet-significant coefficients
	planeBits []uint64
	planeErr2 []float64
}

// ensureDepth makes bucket d usable.
func (e *encoder) ensureDepth(d int) {
	for len(e.lis) <= d {
		e.lis = append(e.lis, nil)
	}
	if e.nd <= d {
		e.nd = d + 1
	}
}

func (e *encoder) run(q float64, planes int) {
	root := oset{set: set{nx: int32(e.dims.NX), ny: int32(e.dims.NY), nz: int32(e.dims.NZ)}}
	root.max = e.boxMax(&root.set)
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
			for _, v := range e.mags[off+int(s.x) : off+int(s.x)+int(s.nx)] {
				m = math.Max(m, v)
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
				e.w.WriteBit(true)
				e.descend(&s, depth, thr) // significant: leaves the LIS
			} else {
				e.w.WriteBit(false)
				kept = append(kept, s)
			}
		}
		e.lis[depth] = kept
	}
}

// descend handles a set established as significant (bit already emitted or
// implied): a single coefficient joins the significant list, a larger set
// is partitioned into up to 8 children at the dyadic subband boundaries,
// each processed immediately; insignificant children enter LIS. A
// significant parent must have at least one significant child, so when
// every earlier sibling was insignificant the last child's significance is
// implied and its bit omitted.
func (e *encoder) descend(s *oset, depth int, thr float64) {
	if s.single() {
		pos := int32(e.dims.Index(int(s.x), int(s.y), int(s.z)))
		e.w.WriteBit(e.neg[pos])
		e.lspNew = append(e.lspNew, pixel{pos: pos, val: e.mags[pos] - thr})
		e.insigE2 -= e.mags[pos] * e.mags[pos]
		return
	}
	var kids [8]set
	k := splitSet(&s.set, &kids)
	childDepth := depth + 1
	e.ensureDepth(childDepth)
	anySig := false
	for i := 0; i < k; i++ {
		c := oset{set: kids[i]}
		c.max = e.boxMax(&c.set)
		if i == k-1 && !anySig {
			e.descend(&c, childDepth, thr) // implied significant: no bit
			return
		}
		if c.max >= thr {
			anySig = true
			e.w.WriteBit(true)
			e.descend(&c, childDepth, thr)
		} else {
			e.w.WriteBit(false)
			e.lis[childDepth] = append(e.lis[childDepth], c)
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

// decodeOracle is the reference decoder: it interleaves the float value
// updates with per-bit reads, so where the budget ends is where its state
// stops — a plane's discoveries carry 1.5*thr, and a refinement pass cut
// short has refined a prefix of the list. Decode must equal it bitwise
// at every bitsAvail.
func decodeOracle(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int) []float64 {
	d := &decoder{dims: dims, r: bits.NewReaderBits(stream, bitsAvail), lis: make([][]set, 1), nd: 1}
	out := make([]float64, dims.Len())
	if planes <= 0 {
		return out
	}
	d.run(q, planes)
	// Pixels discovered but never refined still carry their initial
	// estimate; lspNew is non-empty when the stream ended mid-plane.
	for _, p := range append(d.lsp, d.lspNew...) {
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
		if !d.sortingPass(thr) || !d.refinementPass(thr) {
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
			d.lis[childDepth] = append(d.lis[childDepth], children[i:k]...)
			return false
		}
		if sig {
			anySig = true
			if !d.descend(c, childDepth, thr) {
				d.lis[childDepth] = append(d.lis[childDepth], children[i+1:k]...)
				return false
			}
		} else {
			d.lis[childDepth] = append(d.lis[childDepth], *c)
		}
	}
	return true
}

// refinementPass reads one bit per pixel found on an earlier plane, bit by
// bit, and stops where the stream does.
func (d *decoder) refinementPass(thr float64) bool {
	half := thr / 2
	for i := range d.lsp {
		b := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		if b {
			d.lsp[i].val += half
		} else {
			d.lsp[i].val -= half
		}
	}
	d.lsp = append(d.lsp, d.lspNew...)
	d.lspNew = d.lspNew[:0]
	return true
}

package speck

import (
	"math"

	"sperr/internal/bits"
	"sperr/internal/grid"
)

// encodeFloat is the reference float-residual traversal, the oracle the
// integer encoder is held to byte for byte (intpath.go argues why they
// agree). It codes at q as given, with no resolution clamp, so it also
// writes the >52-plane and subnormal-step streams Encode no longer
// produces, which the general decoder must still read. It returns the
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

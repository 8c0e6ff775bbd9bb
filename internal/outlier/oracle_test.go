package outlier

// The previous outlier coder, kept as the differential oracle for the one
// in outlier.go: a recursive traversal over 24-byte ranges that, on the
// encode side, re-scans every range three times per split against float
// thresholds, and on the decode side reads one bit at a time with an
// Exhausted check after each and sorts the result reflectively. Its
// streams and its (partial) decoded lists define what "the same" means in
// differential_test.go and fuzz_test.go. Only the scratch pooling was
// dropped; every decision and every float expression is as it was.

import (
	"slices"
	"sort"

	"sperr/internal/bits"
)

func oraclePow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

func oracleNumPasses(maxCorr, tol float64) int {
	if maxCorr <= tol || tol <= 0 {
		return 0
	}
	n := 0
	for tol*oraclePow2(n+1) < maxCorr {
		n++
	}
	return n + 1
}

// oracleRange is a contiguous index range [start, start+length) of the
// linearized array, tracking which outliers (by index into the sorted
// outlier slice) fall inside it. max caches the largest |corr| inside
// (encoder only).
type oracleRange struct {
	start, length int32
	lo, hi        int32
	max           float64
}

type oracleEntry struct {
	pos  int32
	corr float64 // magnitude; mutates during refinement
	neg  bool
}

func oracleEncode(n int, tol float64, outliers []Outlier) *Result {
	if len(outliers) == 0 {
		return &Result{}
	}
	e := &oracleEncoder{w: bits.NewWriter(len(outliers) * 12)}
	maxCorr := 0.0
	for _, o := range outliers {
		c := o.Corr
		neg := c < 0
		if neg {
			c = -c
		}
		if c <= tol {
			continue
		}
		e.ents = append(e.ents, oracleEntry{pos: int32(o.Pos), corr: c, neg: neg})
		if c > maxCorr {
			maxCorr = c
		}
	}
	if len(e.ents) == 0 {
		return &Result{}
	}
	slices.SortFunc(e.ents, func(a, b oracleEntry) int {
		switch {
		case a.pos < b.pos:
			return -1
		case a.pos > b.pos:
			return 1
		}
		return 0
	})
	e.lis = make([][]oracleRange, 1, 16)
	e.nd = 1
	passes := oracleNumPasses(maxCorr, tol)
	e.run(n, tol, passes)
	return &Result{Stream: e.w.Close(), Bits: e.w.Len(), NumPasses: passes}
}

type oracleEncoder struct {
	w    *bits.Writer
	ents []oracleEntry

	lis    [][]oracleRange // buckets by split depth; deeper = smaller ranges
	nd     int
	lsp    []int32
	lspNew []int32
}

func (e *oracleEncoder) ensureDepth(d int) {
	for len(e.lis) <= d {
		e.lis = append(e.lis, nil)
	}
	if e.nd <= d {
		e.nd = d + 1
	}
}

func (e *oracleEncoder) run(n int, tol float64, passes int) {
	root := oracleRange{start: 0, length: int32(n), lo: 0, hi: int32(len(e.ents))}
	root.max = e.rangeMax(&root)
	e.lis[0] = append(e.lis[0], root)
	for p := passes - 1; p >= 0; p-- {
		thr := tol * oraclePow2(p)
		e.sortingPass(thr)
		e.refinementPass(thr)
	}
}

func (e *oracleEncoder) rangeMax(s *oracleRange) float64 {
	m := 0.0
	for i := s.lo; i < s.hi; i++ {
		if c := e.ents[i].corr; c > m {
			m = c
		}
	}
	return m
}

func (e *oracleEncoder) sortingPass(thr float64) {
	for depth := e.nd - 1; depth >= 0; depth-- {
		bucket := e.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			if s.max > thr {
				e.processSignificant(&s, depth, thr)
			} else {
				e.w.WriteBit(false)
				kept = append(kept, s)
			}
		}
		e.lis[depth] = kept
	}
}

func (e *oracleEncoder) processSignificant(s *oracleRange, depth int, thr float64) {
	e.w.WriteBit(true)
	e.descend(s, depth, thr)
}

func (e *oracleEncoder) descend(s *oracleRange, depth int, thr float64) {
	if s.length == 1 {
		e.w.WriteBit(e.ents[s.lo].neg)
		e.lspNew = append(e.lspNew, s.lo)
		return
	}
	e.code(s, depth, thr)
}

func (e *oracleEncoder) code(s *oracleRange, depth int, thr float64) {
	a, b := oracleSplit(s)
	mid := s.lo
	for mid < s.hi && e.ents[mid].pos < b.start {
		mid++
	}
	a.lo, a.hi = s.lo, mid
	b.lo, b.hi = mid, s.hi
	a.max = e.rangeMax(&a)
	b.max = e.rangeMax(&b)

	childDepth := depth + 1
	e.ensureDepth(childDepth)
	if a.max > thr {
		e.processSignificant(&a, childDepth, thr)
	} else {
		e.w.WriteBit(false)
		e.lis[childDepth] = append(e.lis[childDepth], a)
		// b is implied significant: no bit.
		e.descend(&b, childDepth, thr)
		return
	}
	if b.max > thr {
		e.processSignificant(&b, childDepth, thr)
	} else {
		e.w.WriteBit(false)
		e.lis[childDepth] = append(e.lis[childDepth], b)
	}
}

func (e *oracleEncoder) refinementPass(thr float64) {
	var word uint64
	var nb uint
	for _, i := range e.lsp {
		o := &e.ents[i]
		if o.corr > thr {
			word |= 1 << nb
			o.corr -= thr
		}
		nb++
		if nb == 64 {
			e.w.WriteBits(word, 64)
			word, nb = 0, 0
		}
	}
	if nb > 0 {
		e.w.WriteBits(word, nb)
	}
	for _, i := range e.lspNew {
		e.ents[i].corr -= thr
	}
	e.lsp = append(e.lsp, e.lspNew...)
	e.lspNew = e.lspNew[:0]
}

func oracleSplit(s *oracleRange) (a, b oracleRange) {
	half := (s.length + 1) / 2
	a = oracleRange{start: s.start, length: half}
	b = oracleRange{start: s.start + half, length: s.length - half}
	return
}

func oracleDecode(stream []byte, nbits uint64, n int, tol float64, passes int) []Outlier {
	if passes <= 0 {
		return nil
	}
	d := &oracleDecoder{r: bits.NewReaderBits(stream, nbits)}
	d.lis = make([][]oracleRange, 1, 16)
	d.nd = 1
	d.run(n, tol, passes)
	var out []Outlier
	for _, p := range d.pts {
		c := p.val
		if p.neg {
			c = -c
		}
		out = append(out, Outlier{Pos: int(p.pos), Corr: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	return out
}

type oraclePoint struct {
	pos int32
	val float64
	neg bool
}

type oracleDecoder struct {
	r    *bits.Reader
	lis  [][]oracleRange
	nd   int
	pts  []oraclePoint // reconstructed significant points (LSP order)
	nOld int           // pts[:nOld] existed before the current sorting pass
}

func (d *oracleDecoder) ensureDepth(depth int) {
	for len(d.lis) <= depth {
		d.lis = append(d.lis, nil)
	}
	if d.nd <= depth {
		d.nd = depth + 1
	}
}

func (d *oracleDecoder) run(n int, tol float64, passes int) {
	root := oracleRange{start: 0, length: int32(n)}
	d.lis[0] = append(d.lis[0], root)
	for p := passes - 1; p >= 0; p-- {
		thr := tol * oraclePow2(p)
		d.nOld = len(d.pts)
		if !d.sortingPass(thr) {
			return
		}
		if !d.refinementPass(thr) {
			return
		}
	}
}

func (d *oracleDecoder) sortingPass(thr float64) bool {
	for depth := d.nd - 1; depth >= 0; depth-- {
		bucket := d.lis[depth]
		kept := bucket[:0]
		for i := range bucket {
			s := bucket[i]
			sig := d.r.ReadBit()
			if d.r.Exhausted() {
				d.lis[depth] = append(kept, bucket[i:]...)
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

func (d *oracleDecoder) descend(s *oracleRange, depth int, thr float64) bool {
	if s.length == 1 {
		neg := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		d.pts = append(d.pts, oraclePoint{pos: s.start, val: 1.5 * thr, neg: neg})
		return true
	}
	a, b := oracleSplit(s)
	childDepth := depth + 1
	d.ensureDepth(childDepth)
	sigA := d.r.ReadBit()
	if d.r.Exhausted() {
		d.lis[childDepth] = append(d.lis[childDepth], a, b)
		return false
	}
	if sigA {
		if !d.descend(&a, childDepth, thr) {
			d.lis[childDepth] = append(d.lis[childDepth], b)
			return false
		}
	} else {
		d.lis[childDepth] = append(d.lis[childDepth], a)
		return d.descend(&b, childDepth, thr)
	}
	sigB := d.r.ReadBit()
	if d.r.Exhausted() {
		d.lis[childDepth] = append(d.lis[childDepth], b)
		return false
	}
	if sigB {
		return d.descend(&b, childDepth, thr)
	}
	d.lis[childDepth] = append(d.lis[childDepth], b)
	return true
}

func (d *oracleDecoder) refinementPass(thr float64) bool {
	half := thr / 2
	if d.r.Remaining() >= uint64(d.nOld) {
		for i := 0; i < d.nOld; {
			n := d.nOld - i
			if n > 64 {
				n = 64
			}
			word := d.r.ReadBits(uint(n))
			for k := 0; k < n; k, i = k+1, i+1 {
				if word&1 != 0 {
					d.pts[i].val += half
				} else {
					d.pts[i].val -= half
				}
				word >>= 1
			}
		}
		return true
	}
	for i := 0; i < d.nOld; i++ {
		b := d.r.ReadBit()
		if d.r.Exhausted() {
			return false
		}
		if b {
			d.pts[i].val += half
		} else {
			d.pts[i].val -= half
		}
	}
	return true
}

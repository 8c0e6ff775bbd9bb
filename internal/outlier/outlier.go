// Package outlier implements SPERR's outlier coding algorithm (paper
// Section IV, Listings 1-3): a SPECK-inspired embedded coder for sparse
// (position, correction) tuples that lets SPERR guarantee a maximum
// point-wise error (PWE).
//
// The input is conceptually a length-N 1D array that is zero everywhere
// except at outlier positions, where it holds the correction value
// corr = x - x~ (original minus wavelet reconstruction), with |corr| > t.
// The coder runs sorting and refinement passes against thresholds
// t*2^n for n = nmax .. 0; after the final pass every outlier has been
// located exactly and its correction reconstructed to within t/2, which
// bounds the corrected reconstruction error by the tolerance (Equation 1).
//
// Multi-dimensional inputs are linearized before coding: outlier positions
// carry essentially no spatial correlation (paper Section IV-C, Figure 1),
// so nothing is lost by flattening and the set partitioning stays binary.
//
// The implementation keeps the float domain out of the traversal. The
// encoder ranks every outlier once (rank = 1 + the largest n whose
// threshold its magnitude exceeds, by the same strict float compares the
// passes are defined with), after which set significance is an integer
// compare against a range maximum that a scan bounded by the parent's
// maximum finds when the range is split. The decoder shifts decisions out of a 57-bit
// window held in registers, walks each significant subtree iteratively
// over 8-byte ranges, and leaves the points it found as parallel arrays in
// the order found; ApplyScratch adds them straight into a reconstruction
// (positions are unique, so the order is free) and DecodeScratch places
// them, by counting the positions below each, into the position-ordered
// list it has always returned.
// DESIGN.md section 4l states the stream-order invariants both sides keep;
// oracle_test.go holds the previous coder, which the differential tests
// hold this one to, byte for byte and bit prefix for bit prefix.
package outlier

import (
	"cmp"
	"math"
	mbits "math/bits"
	"slices"

	"sperr/internal/bits"
)

// Outlier is one (position, correction) tuple. Pos indexes the linearized
// input array; Corr is the value to add to the wavelet reconstruction.
type Outlier struct {
	Pos  int
	Corr float64
}

// Result carries the encoder output.
type Result struct {
	Stream    []byte
	Bits      uint64
	NumPasses int // threshold passes emitted; the decoder must replay as many
}

// NumPasses returns how many threshold passes encode outliers with maximum
// magnitude maxCorr at tolerance tol: passes-1 is the largest n >= 0 with
// tol*2^n < maxCorr (Listing 1, line 4).
func NumPasses(maxCorr, tol float64) int {
	if maxCorr <= tol || tol <= 0 {
		return 0
	}
	n := 0
	for threshold(tol, n+1) < maxCorr {
		n++
	}
	return n + 1
}

// threshold is pass n's threshold tol*2^n. Powers of two are exact, so the
// product is the one the coder has always compared against.
func threshold(tol float64, n int) float64 { return tol * math.Ldexp(1, n) }

// maxDepth is the deepest split level: positions are int32, and a range of
// at most 2^31-1 points ceil-halves down to one point in at most 31 splits.
const maxDepth = 31

// signBit marks a negative correction in a found point's packed position.
const signBit = 1 << 31

// erange is an encoder-side range [start, start+length) of the linearized
// array. The outliers inside it are entries lo..hi-1 of the position-sorted
// entry arrays; rank is the largest rank among them, 0 when there are none.
type erange struct {
	start, length int32
	lo, hi        int32
	rank          uint16
}

// drange is a decoder-side range: the decoder learns which ranges hold
// outliers from the stream and needs nothing but the extent.
type drange struct {
	start, length int32
}

// Scratch pools the reusable state of outlier Encode, Decode and Apply
// calls so per-chunk coding allocates nothing once warmed up. A zero
// Scratch is ready; it is not safe for concurrent use. Results returned by
// EncodeScratch/DecodeScratch alias the scratch and stay valid only until
// its next use.
type Scratch struct {
	w *bits.Writer
	r bits.Reader

	// Encoder entries, ascending by position, as parallel arrays: the
	// partition scan reads 4-byte positions and 2-byte ranks only.
	pos    []int32
	corr   []float64 // signed correction
	rank   []uint16  // see ranks
	thr    []float64 // thr[p] = pass p's threshold
	sorted []Outlier // position-sorted copy, only for inputs that were not
	elis   [maxDepth + 1][]erange

	// Points in the order they became significant. mag is the encoder's
	// residual magnitude and the decoder's reconstructed one; pts is the
	// decoder's position with signBit set on negative corrections.
	mag []float64
	pts []uint32

	dlis  [maxDepth + 1][]drange
	out   []Outlier // DecodeScratch's result
	seen  []uint64  // sortedList: bitmap of the found positions
	below []int32   // sortedList: points in the words before each word

	// Grows counts buffer (re)allocations; a warmed-up scratch stops
	// growing.
	Grows int
}

// Encode codes the outliers of a length-n array at tolerance tol > 0.
// Every |outlier.Corr| must exceed tol (that is what makes it an outlier);
// values at or below tol are ignored. Positions must be unique and within
// [0, n). The outliers slice is not modified.
func Encode(n int, tol float64, outliers []Outlier) *Result {
	return EncodeScratch(n, tol, outliers, nil)
}

// EncodeScratch is Encode with pooled buffers; the Result aliases s and is
// valid until the next use of s. Output is byte-identical to Encode's.
func EncodeScratch(n int, tol float64, outliers []Outlier, s *Scratch) *Result {
	if len(outliers) == 0 {
		return &Result{}
	}
	if s == nil {
		s = &Scratch{}
	}
	// Range membership must be a contiguous run of entries. The codec's
	// scan delivers ascending positions, so the sort is the exception.
	maxCorr, ascending := s.load(outliers, tol)
	if !ascending {
		s.sorted = append(s.sorted[:0], outliers...)
		slices.SortFunc(s.sorted, byPos)
		maxCorr, _ = s.load(s.sorted, tol)
	}
	passes := NumPasses(maxCorr, tol)
	if len(s.pos) == 0 || passes == 0 {
		return &Result{}
	}
	s.thr = s.thr[:0]
	for p := 0; p < passes; p++ {
		s.thr = append(s.thr, threshold(tol, p))
	}
	s.ranks()

	if s.w == nil {
		s.w = bits.NewWriter(len(outliers) * 12)
		s.Grows++
	} else {
		s.w.Reset()
	}
	for i := range s.elis {
		s.elis[i] = s.elis[i][:0]
	}
	e := &encoder{w: s.w, pos: s.pos, corr: s.corr, rank: s.rank, lis: &s.elis, mag: s.mag[:0]}
	// The largest magnitude has rank passes, by the definition of NumPasses.
	root := erange{length: int32(n), hi: int32(len(s.pos)), rank: uint16(passes)}
	e.lis[0] = append(e.lis[0], root)
	for p := passes - 1; p >= 0; p-- {
		found := len(e.mag)
		e.sortingPass(uint16(p))
		e.refinementPass(s.thr[p], found)
	}
	s.mag = e.mag
	return &Result{Stream: e.w.Close(), Bits: e.w.Len(), NumPasses: passes}
}

func byPos(a, b Outlier) int { return cmp.Compare(a.Pos, b.Pos) }

// load fills the entry arrays from outliers, dropping inliers, and returns
// the largest magnitude kept. It stops and reports false at the first
// position that descends.
func (s *Scratch) load(outliers []Outlier, tol float64) (maxCorr float64, ascending bool) {
	pos, corr := s.pos[:0], s.corr[:0]
	prev := math.MinInt
	for _, o := range outliers {
		c := math.Abs(o.Corr)
		if !(c > tol) {
			continue // inlier; nothing to correct
		}
		if o.Pos < prev {
			return 0, false
		}
		prev = o.Pos
		pos = append(pos, int32(o.Pos))
		corr = append(corr, o.Corr)
		if c > maxCorr {
			maxCorr = c
		}
	}
	s.pos, s.corr = pos, corr
	return maxCorr, true
}

// ranks gives every entry its rank: p+1 for the largest pass p whose
// threshold its magnitude exceeds — at least 1, since an entry exceeds
// thr[0] = tol. A range is significant at pass p (Section IV-B: some
// magnitude strictly above the threshold) exactly when its largest rank
// exceeds p, because thresholds grow with p. The exponent difference lands
// within one of the answer for normal floats; the compares that settle it
// are the passes' own, against the same threshold values.
func (s *Scratch) ranks() {
	s.rank = slices.Grow(s.rank[:0], len(s.corr))[:len(s.corr)]
	thr := s.thr
	top := len(thr) - 1
	tolExp := exponent(thr[0])
	for i, c := range s.corr {
		c = math.Abs(c)
		p := min(max(exponent(c)-tolExp, 0), top)
		for p > 0 && !(c > thr[p]) {
			p--
		}
		for p < top && c > thr[p+1] {
			p++
		}
		s.rank[i] = uint16(p + 1)
	}
}

// exponent returns x's biased binary exponent field.
func exponent(x float64) int { return int(math.Float64bits(x) >> 52 & 0x7ff) }

type encoder struct {
	w    *bits.Writer
	pos  []int32
	corr []float64
	rank []uint16
	lis  *[maxDepth + 1][]erange // buckets by split depth; deeper = smaller ranges
	mag  []float64
}

// bitAcc collects an encoder pass's decisions and hands the writer a word
// whenever 64 are there.
type bitAcc struct {
	w    *bits.Writer
	acc  uint64
	fill uint
}

// put appends the low n <= 64 bits of v.
func (a *bitAcc) put(v uint64, n uint) {
	a.acc |= v << a.fill
	if a.fill += n; a.fill >= 64 {
		a.spill(v, n)
	}
}

// spill is put's once-in-64-bits tail, kept out of line so that put
// inlines.
//
//go:noinline
func (a *bitAcc) spill(v uint64, n uint) {
	a.w.WriteBits(a.acc, 64)
	a.fill -= 64
	a.acc = v >> (n - a.fill)
}

// sortingPass visits LIS ranges smallest first (Listing 2, line 1) and
// codes every range significant at pass p down to each significant point
// inside it (Listing 2, Code(S)); ranges created by splitting land in
// deeper, already-visited buckets. Each level splits at ceil(length/2) and
// emits the first half's significance; when that is 0 the second half of a
// significant parent is implied significant and its bit omitted (the
// Said-Pearlman saving of the reference coder).
//
// A subtree is walked without recursion. Only a split with both halves
// significant forks: the second half waits on a stack, and its 1 is
// emitted when the first half's subtree is done. An insignificant second
// half costs one 0 after the whole of the first half's subtree, which
// ends at the next point the walk reaches, so those zeros are counted and
// emitted after that point; queueing the half on the LIS early is safe
// because nothing else is appended to its depth's bucket in between.
func (e *encoder) sortingPass(p uint16) {
	out := bitAcc{w: e.w}
	var waiting [maxDepth + 1]struct {
		r     erange
		depth int
		zeros uint
	}
	// Nothing reads the LIS after the last pass, which is when most of
	// the array is split: what it sets aside is not stored.
	last := p == 0
	for depth := maxDepth; depth >= 0; depth-- {
		bucket := e.lis[depth]
		kept := 0
		for _, s := range bucket {
			if s.rank <= p {
				out.put(0, 1)
				bucket[kept] = s
				kept++
				continue
			}
			out.put(1, 1)
			at, nwait, zeros := depth, 0, uint(0)
			for {
				for s.length > 1 && s.hi-s.lo > 1 {
					half := (s.length + 1) / 2
					a := erange{start: s.start, length: half, lo: s.lo}
					b := erange{start: s.start + half, length: s.length - half, hi: s.hi}
					a.hi = e.firstAt(s.lo, s.hi, b.start)
					b.lo = a.hi
					// The parent's largest rank sits in one half or the
					// other, which bounds both scans: each stops at the
					// first entry that reaches it, and a first half that
					// falls short settles the second unscanned.
					a.rank = e.maxRank(a.lo, a.hi, s.rank)
					b.rank = s.rank
					if a.rank == s.rank {
						b.rank = e.maxRank(b.lo, b.hi, s.rank)
					}
					at++
					switch {
					case a.rank <= p:
						out.put(0, 1)
						if !last {
							e.lis[at] = append(e.lis[at], a)
						}
						s = b
					case b.rank <= p:
						out.put(1, 1)
						if !last {
							e.lis[at] = append(e.lis[at], b)
						}
						zeros++
						s = a
					default:
						out.put(1, 1)
						waiting[nwait].r, waiting[nwait].depth, waiting[nwait].zeros = b, at, zeros
						nwait++
						zeros = 0
						s = a
					}
				}
				// One entry left — most of the walk, in a sparse array: its
				// position alone picks the significant half at every level
				// below, and the other half is empty.
				for pos := e.pos[s.lo]; s.length > 1; {
					half := (s.length + 1) / 2
					at++
					if mid := s.start + half; pos < mid {
						out.put(1, 1)
						if !last {
							e.lis[at] = append(e.lis[at], erange{start: mid, length: s.length - half, lo: s.hi, hi: s.hi})
						}
						zeros++
						s.length = half
					} else {
						out.put(0, 1)
						if !last {
							e.lis[at] = append(e.lis[at], erange{start: s.start, length: half, lo: s.lo, hi: s.lo})
						}
						s.start, s.length = mid, s.length-half
					}
				}
				// A single significant point: emit its sign and move it to
				// the LSP (Listing 2, lines 5-7). s.lo is its entry.
				c := e.corr[s.lo]
				e.mag = append(e.mag, math.Abs(c))
				if nwait == 0 {
					out.put(math.Float64bits(c)>>63, 1+zeros)
					break
				}
				// Sign, the owed zeros, and the waiting half's 1.
				out.put(math.Float64bits(c)>>63|2<<zeros, 2+zeros)
				nwait--
				s, at, zeros = waiting[nwait].r, waiting[nwait].depth, waiting[nwait].zeros
			}
		}
		e.lis[depth] = bucket[:kept]
	}
	e.w.WriteBits(out.acc, out.fill)
}

// firstAt returns the first of the position-sorted entries lo..hi-1 (at
// least one) at or beyond position at, or hi. Which way a step goes is a
// coin flip, so the binary search is the shape that compiles to a
// conditional move: every entry before lo is below at, and the answer is
// within n of lo.
func (e *encoder) firstAt(lo, hi, at int32) int32 {
	n := hi - lo
	for n > 1 {
		half := n / 2
		if e.pos[lo+half-1] < at {
			lo += half
		}
		n -= half
	}
	if e.pos[lo] < at {
		lo++
	}
	return lo
}

// maxRank returns the largest rank among entries lo..hi-1, none of which
// exceeds limit.
func (e *encoder) maxRank(lo, hi int32, limit uint16) uint16 {
	var m uint16
	for _, r := range e.rank[lo:hi] {
		if r > m {
			if m = r; m == limit {
				break
			}
		}
	}
	return m
}

// refinementPass emits one bit for each point found before this pass
// (Listing 3), batched into 64-bit words, and quantizes the points found
// during it with no bit emitted.
func (e *encoder) refinementPass(thr float64, found int) {
	sub := [2]float64{0, thr}
	var word uint64
	var nb uint
	for i, c := range e.mag[:found] {
		var b uint64
		if c > thr {
			b = 1
		}
		word |= b << nb
		e.mag[i] = c - sub[b]
		if nb++; nb == 64 {
			e.w.WriteBits(word, 64)
			word, nb = 0, 0
		}
	}
	e.w.WriteBits(word, nb)
	for i := found; i < len(e.mag); i++ {
		e.mag[i] -= thr
	}
}

// Decode reconstructs the outlier list from a bitstream produced by Encode
// with the same n, tol and passes (from Result.NumPasses). The returned
// corrections satisfy |corr~ - corr| <= tol/2 and are sorted by position.
// Truncated streams decode to a valid partial correction list.
func Decode(stream []byte, nbits uint64, n int, tol float64, passes int) []Outlier {
	return DecodeScratch(stream, nbits, n, tol, passes, nil)
}

// DecodeScratch is Decode with pooled buffers; the returned slice aliases
// s and is valid until the next use of s.
func DecodeScratch(stream []byte, nbits uint64, n int, tol float64, passes int, s *Scratch) []Outlier {
	if passes <= 0 || n <= 0 {
		return nil
	}
	if s == nil {
		s = &Scratch{}
	}
	s.decode(stream, nbits, n, tol, passes)
	return s.sortedList(n)
}

// ApplyScratch decodes like DecodeScratch with n = len(dst) and adds each
// correction to dst at its position, without building or ordering a list:
// positions are unique, so every element is touched at most once and the
// sums do not depend on the order. It returns the number of corrections
// applied. dst after ApplyScratch is bit-identical to dst after adding
// DecodeScratch's list.
func ApplyScratch(dst []float64, stream []byte, nbits uint64, tol float64, passes int, s *Scratch) int {
	if s == nil {
		s = &Scratch{}
	}
	s.decode(stream, nbits, len(dst), tol, passes)
	for i, ps := range s.pts {
		dst[ps&^signBit] += signed(s.mag[i], ps)
	}
	return len(s.pts)
}

// signed negates mag when the packed position ps carries signBit.
func signed(mag float64, ps uint32) float64 {
	return math.Float64frombits(math.Float64bits(mag) ^ uint64(ps>>31)<<63)
}

// sortedList turns the found points into the position-ordered list of
// DecodeScratch without comparing or moving anything twice: positions are
// unique, so a point's place in the list is the number of points below
// its position — a population count over a bitmap of the positions, which
// for a 64^3 chunk is 32 KB and stays in L1.
func (s *Scratch) sortedList(n int) []Outlier {
	words := (n + 63) / 64
	s.seen = slices.Grow(s.seen[:0], words)[:words]
	s.below = slices.Grow(s.below[:0], words)[:words]
	clear(s.seen)
	for _, ps := range s.pts {
		pos := ps &^ signBit
		s.seen[pos>>6] |= 1 << (pos & 63)
	}
	sum := int32(0)
	for i, w := range s.seen {
		s.below[i] = sum
		sum += int32(mbits.OnesCount64(w))
	}
	s.out = slices.Grow(s.out[:0], len(s.pts))[:len(s.pts)]
	for i, ps := range s.pts {
		pos := ps &^ signBit
		w := pos >> 6
		at := s.below[w] + int32(mbits.OnesCount64(s.seen[w]&(1<<(pos&63)-1)))
		s.out[at] = Outlier{Pos: int(pos), Corr: signed(s.mag[i], ps)}
	}
	return s.out
}

// decode runs the traversal over stream, leaving the points found in s.pts
// and s.mag. It stops where the nbits budget does, at exactly the bit where
// a bit-at-a-time reader would report exhaustion.
func (s *Scratch) decode(stream []byte, nbits uint64, n int, tol float64, passes int) {
	s.pts, s.mag = s.pts[:0], s.mag[:0]
	if passes <= 0 || n == 0 {
		return
	}
	s.r.Reset(stream, nbits)
	for i := range s.dlis {
		s.dlis[i] = s.dlis[i][:0]
	}
	d := &decoder{r: &s.r, lis: &s.dlis, pts: s.pts, mag: s.mag}
	d.lis[0] = append(d.lis[0], drange{length: int32(n)})
	for p := passes - 1; p >= 0; p-- {
		thr := threshold(tol, p)
		found := len(d.pts)
		more := d.sortingPass(p == 0)
		// Points found in this pass start at 1.5*thr (Listing 3, line 12,
		// the LNSP rule) and get no refinement bit until the next one.
		for len(d.mag) < len(d.pts) {
			d.mag = append(d.mag, 1.5*thr)
		}
		if !more || !d.refinementPass(thr/2, found) {
			break
		}
	}
	s.pts, s.mag = d.pts, d.mag
}

type decoder struct {
	r   *bits.Reader
	lis *[maxDepth + 1][]drange
	pts []uint32  // position | signBit, in the order found (LSP order)
	mag []float64 // reconstructed magnitudes, parallel to pts
}

// sortingPass mirrors the encoder's: one significance bit per LIS range,
// smallest ranges first, and under every 1 the subtree the encoder coded.
// It reports false when the stream ran out.
//
// Bits come out of win, refilled 57 at a time; the reader never hands out
// a bit beyond the budget, so an empty refill is the exhaustion a per-bit
// reader would have seen at this very bit. A subtree is walked without
// recursion: a significant first half is entered at once and its sibling,
// whose bit follows the first half's whole subtree, waits on a stack. In
// the last pass, after which nothing reads the LIS, the ranges set aside
// are not stored.
func (d *decoder) sortingPass(last bool) bool {
	var (
		win     uint64
		avail   uint
		waiting [maxDepth + 1]struct {
			r     drange
			depth int
		}
	)
	for depth := maxDepth; depth >= 0; depth-- {
		bucket := d.lis[depth]
		kept := 0
		for _, cur := range bucket {
			if avail == 0 {
				if win, avail = d.r.ReadWindow(); avail == 0 {
					return false
				}
			}
			sig := win & 1
			win >>= 1
			avail--
			if sig == 0 {
				bucket[kept] = cur
				kept++
				continue
			}
			at, nwait := depth, 0
		subtree:
			for {
				for cur.length > 1 {
					half := (cur.length + 1) / 2
					a := drange{cur.start, half}
					b := drange{cur.start + half, cur.length - half}
					at++
					if avail == 0 {
						if win, avail = d.r.ReadWindow(); avail == 0 {
							return false
						}
					}
					sig := win & 1
					win >>= 1
					avail--
					if sig != 0 {
						waiting[nwait].r, waiting[nwait].depth = b, at
						nwait++
						cur = a
					} else {
						// b is implied significant: the encoder emitted no bit.
						if !last {
							d.lis[at] = append(d.lis[at], a)
						}
						cur = b
					}
				}
				if avail == 0 {
					if win, avail = d.r.ReadWindow(); avail == 0 {
						return false
					}
				}
				d.pts = append(d.pts, uint32(cur.start)|uint32(win&1)<<31)
				win >>= 1
				avail--
				for {
					if nwait == 0 {
						break subtree
					}
					nwait--
					if avail == 0 {
						if win, avail = d.r.ReadWindow(); avail == 0 {
							return false
						}
					}
					sig := win & 1
					win >>= 1
					avail--
					w := &waiting[nwait]
					if sig != 0 {
						cur, at = w.r, w.depth
						break
					}
					if !last {
						d.lis[w.depth] = append(d.lis[w.depth], w.r)
					}
				}
			}
		}
		d.lis[depth] = bucket[:kept]
	}
	d.r.Unread(avail)
	return true
}

// refinementPass moves each of the first found points up or down by half,
// one bit apiece. With fewer bits left than points it refines as many as
// there are bits and reports false.
func (d *decoder) refinementPass(half float64, found int) bool {
	m := found
	if left := d.r.Remaining(); uint64(m) > left {
		m = int(left)
	}
	step := [2]float64{-half, half}
	mag := d.mag[:m]
	for i := 0; i < m; {
		win, k := d.r.ReadWindow()
		if rest := uint(m - i); k > rest {
			d.r.Unread(k - rest)
			k = rest
		}
		for end := i + int(k); i < end; i++ {
			mag[i] += step[win&1]
			win >>= 1
		}
	}
	return m == found
}

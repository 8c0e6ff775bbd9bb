package speck

import (
	"encoding/binary"
	"math"
	mbits "math/bits"

	"sperr/internal/grid"
)

// The SPECK decoder, phase-separated. It runs the sorting passes alone —
// one list of discovered positions and signs — and leaves every
// refinement bit where it lies. A refinement pass at plane p carries one
// bit per pixel discovered on an earlier plane, in discovery order, so
// pixel i of the list owns stream bit refStart[p]+i, and plane p's
// discoveries are the index range [cnt[p+1], cnt[p]) of post-sorting list
// sizes. A refinement pass is therefore a budget check, two recorded
// numbers and a skip. reconstruct then rebuilds the quantized magnitudes
// 64 pixels at a time from those bits and takes the float values from
// reconTab — the values a per-bit decoder's float updates produce — so
// no per-pixel array is swept once per plane (DESIGN.md 4h).
//
// A stream that ends inside plane p (a size-bounded chunk, a partial
// decode, a corrupt length) is the complete planes above p, reconstructed
// with floor p+1, plus finishPlane: plane p's discoveries whose sign was
// read, and the refinement bits of p that arrived. The list-based decoder
// in oracle_test.go is the per-bit reference every cut is held to.

type intDecoder struct {
	tree *octree
	dims grid.Dims
	r    rawCursor

	lis [][]int32
	nd  int
	// lspPos packs each discovered pixel's position with its sign bit in
	// bit 31 (positions are volume indexes, well under 2^31); one append
	// per leaf and a branch-free sign apply in reconstruct.
	lspPos []int32

	// refStart[p] is the bit position in r.buf of plane p's refinement
	// pass, cnt[p] the list size after its sorting pass (cnt[planes] = 0).
	refStart [64]uint64
	cnt      [65]int32
}

// rawCursor is an inline bit reader over the stream: a budget compare and
// a shift per bit, no method values or interface headers on the hot path.
type rawCursor struct {
	buf    []byte
	pos    uint64
	budget uint64
	over   bool
}

func (c *rawCursor) bit() bool {
	if c.pos >= c.budget {
		c.over = true
		return false
	}
	b := c.buf[c.pos>>3]&(1<<(c.pos&7)) != 0
	c.pos++
	return b
}

// window returns the stream bits from absolute bit position pos up, LSB
// first — at least 57 of them, zero-padded past the data. One unaligned
// load and a shift; only a position inside the buffer's last 8 bytes is
// assembled bytewise.
func (c *rawCursor) window(pos uint64) uint64 {
	i := pos >> 3
	var v uint64
	if i+8 <= uint64(len(c.buf)) {
		v = binary.LittleEndian.Uint64(c.buf[i:])
	} else {
		for j, k := i, uint(0); j < uint64(len(c.buf)); j, k = j+1, k+8 {
			v |= uint64(c.buf[j]) << k
		}
	}
	return v >> (pos & 7)
}

// peek returns the next readable bits without advancing; the caller must
// not consume more than window's 57.
func (c *rawCursor) peek() uint64 { return c.window(c.pos) }

// load returns the nb <= 64 bits at pos without moving the cursor. The
// caller guarantees pos+nb <= 8*len(buf), so when the field straddles the
// window's eight bytes the ninth exists.
func (c *rawCursor) load(pos uint64, nb uint) uint64 {
	v := c.window(pos)
	if sh := uint(pos & 7); sh+nb > 64 {
		v |= uint64(c.buf[pos>>3+8]) << (64 - sh)
	}
	if nb < 64 {
		v &= 1<<nb - 1
	}
	return v
}

// decodeFast reconstructs from the first bitsAvail bits of the stream,
// whatever bit they end on; its arguments meet Decode's preconditions.
func decodeFast(stream []byte, bitsAvail uint64, dims grid.Dims, q float64, planes int, s *Scratch) []float64 {
	n := dims.Len()
	d := &intDecoder{dims: dims}
	if planes <= 0 {
		return d.reconstruct(n, q, 0, planes, s) // an empty stream: zeros
	}
	d.tree = s.octreeFor(dims)
	max := uint64(len(stream)) * 8
	if bitsAvail > max {
		bitsAvail = max
	}
	d.r = rawCursor{buf: stream, budget: bitsAvail}
	d.lis, _ = s.resetLISI()
	d.nd = 1
	d.lspPos = s.lspI[:0]
	d.lis[0] = append(d.lis[0], 0)
	floor, cut := 0, -1
	var refined uint64
	for p := planes - 1; p >= 0; p-- {
		if d.r.pos >= d.r.budget {
			// The stream ended exactly at a plane boundary: every decoded
			// plane is complete.
			floor = p + 1
			break
		}
		n0 := len(d.lspPos)
		if !d.sortingPass() {
			floor, cut = p+1, p
			break
		}
		if !d.refinementPass(p, n0) {
			floor, cut, refined = p+1, p, d.r.budget-d.refStart[p]
			break
		}
	}
	out := d.reconstruct(n, q, floor, planes, s)
	if cut >= 0 {
		d.finishPlane(out, q, cut, refined)
	}
	d.save(s)
	return out
}

func (d *intDecoder) save(s *Scratch) {
	s.lisI = d.lis
	s.lspI = d.lspPos
}

func (d *intDecoder) ensureDepth(depth int) {
	for len(d.lis) <= depth {
		d.lis = append(d.lis, nil)
	}
	if d.nd <= depth {
		d.nd = depth + 1
	}
}

// sortingPass reads one plane's LIS significance tests. On exhaustion it
// reports false; the discoveries whose sign bit arrived stay on the list.
// Runs of zero decisions — the common case on every plane — are consumed
// a word-peek at a time: trailing-zero counts turn per-bit reads into
// bulk keeps.
func (d *intDecoder) sortingPass() bool {
	for depth := d.nd - 1; depth >= 0; depth-- {
		bucket := d.lis[depth]
		kept := bucket[:0]
		i, m := 0, len(bucket)
		for i < m {
			take := m - i
			if take > 56 {
				take = 56
			}
			if avail := d.r.budget - d.r.pos; uint64(take) > avail {
				take = int(avail)
				if take == 0 {
					d.r.over = true
					return false
				}
			}
			word := d.r.peek()
			tz := mbits.TrailingZeros64(word | 1<<uint(take))
			if tz > 0 {
				kept = append(kept, bucket[i:i+tz]...)
				i += tz
				d.r.pos += uint64(tz)
			}
			if tz < take {
				d.r.pos++ // the significance 1-bit
				node := bucket[i]
				i++
				if nd := d.tree.nod[node]; nd.leaf() {
					if !d.leaf(nd, word>>uint(tz+1)) {
						return false
					}
				} else if !d.descend(node, depth) {
					return false
				}
			}
		}
		d.lis[depth] = kept
	}
	return true
}

// descend is the mirror of the encoder's traversal, reading the inline
// cursor directly. A brood's zero run — every child bit up to the
// next significant child — is consumed from one word peek instead of
// per-bit reads; the significant child's bits and recursive output stay
// interleaved in stream order. Before the first significant child only
// k-1-i bits are guaranteed present (the last child's bit is implied when
// it is the sole significant one), so the peek is capped accordingly and
// the implied case falls out as an all-zeros run.
func (d *intDecoder) descend(node int32, depth int) bool {
	t := d.tree
	nd := t.nod[node]
outer:
	for !nd.leaf() {
		first, k := nd.kids()
		childDepth := depth + 1
		depth = childDepth
		d.ensureDepth(childDepth)
		i := 0
		anySig := false
		for {
			take := k - i
			if !anySig {
				take-- // last child's bit may be implied
			}
			capped := false
			if avail := d.r.budget - d.r.pos; uint64(take) > avail {
				take = int(avail)
				capped = true
			}
			word := d.r.peek()
			tz := mbits.TrailingZeros64(word | 1<<uint(take))
			if tz > 0 {
				bucket := d.lis[childDepth]
				for j := 0; j < tz; j++ {
					bucket = append(bucket, first+int32(i+j))
				}
				d.lis[childDepth] = bucket
				i += tz
				d.r.pos += uint64(tz)
			}
			if tz == take {
				if capped {
					d.r.over = true
					return false
				}
				if !anySig {
					// All explicit bits were zero: the last child is the
					// sole significant one, its bit implied.
					node = first + int32(k-1)
					nd = t.nod[node]
					continue outer
				}
				return true
			}
			d.r.pos++ // the significance 1-bit
			if i == k-1 {
				node = first + int32(i)
				nd = t.nod[node]
				continue outer
			}
			anySig = true
			c := first + int32(i)
			if cn := t.nod[c]; cn.leaf() {
				// A significant leaf's sign follows its 1-bit at once, as
				// the encoder writes both in one step: take it from the
				// same peek, with no call.
				if !d.leaf(cn, word>>uint(tz+1)) {
					return false
				}
			} else if !d.descend(c, childDepth) {
				return false
			}
			i++
		}
	}
	return d.leaf(nd, d.r.peek())
}

// leaf records significant leaf nd, whose sign bit is the low bit of
// next, the stream from the cursor on. Like bit, it reports false with
// over set when the budget ends before the sign.
func (d *intDecoder) leaf(nd onode, next uint64) bool {
	if d.r.pos >= d.r.budget {
		d.r.over = true
		return false
	}
	d.r.pos++
	d.lspPos = append(d.lspPos, nd.pos()|int32(next&1)<<31)
	return true
}

// refinementPass closes plane p's sorting pass (cnt) and locates its n0
// refinement bits without applying them: it records where they start and
// skips them. It reports false when the budget cuts the pass short.
func (d *intDecoder) refinementPass(p, n0 int) bool {
	d.cnt[p] = int32(len(d.lspPos))
	d.refStart[p] = d.r.pos
	if d.r.budget-d.r.pos < uint64(n0) {
		return false
	}
	d.r.pos += uint64(n0)
	return true
}

// finishPlane applies what the stream holds of plane p, the plane the
// budget ended inside, over reconstruct's values at floor p+1. Each plane-p
// discovery whose sign was read is +-1.5*thr, and the first refined
// pixels of the discovery list take one more +-thr/2 — the very addition
// a per-bit decoder makes next — so the result stays bit-identical to the
// oracle at every cut.
func (d *intDecoder) finishPlane(out []float64, q float64, p int, refined uint64) {
	thr := q * math.Pow(2, float64(p))
	vb := math.Float64bits(1.5 * thr)
	for _, pe := range d.lspPos[d.cnt[p+1]:] {
		out[pe&0x7fffffff] = math.Float64frombits(vb | uint64(uint32(pe)>>31)<<63)
	}
	// The conversion keeps m +- half two roundings on every GOARCH: a
	// compiler may turn thr/2 into thr*0.5 and fuse it into the addition.
	half := float64(thr / 2)
	for b := uint64(0); b < refined; b += 64 {
		w := d.r.load(d.refStart[p]+b, uint(min(64, refined-b)))
		for _, pe := range d.lspPos[b:min(b+64, refined)] {
			i := pe & 0x7fffffff
			m := math.Abs(out[i])
			if w&1 != 0 {
				m += half
			} else {
				m -= half
			}
			w >>= 1
			out[i] = math.Float64frombits(math.Float64bits(m) | uint64(uint32(pe)>>31)<<63)
		}
	}
}

// reconTab turns a quantized magnitude u into the decoder's float value
// for one (q, floor): the per-plane thresholds and a table of the values'
// bit patterns for small u. val(u) — 1.5*thr at u's top plane, then
// +-thr/2 per lower plane down to floor, the oracle decoder's update
// sequence — depends only on u's bits and obeys
// val(u) = fl(2*val(u>>1) +- halfs[floor]): doubling every intermediate of
// the shorter chain is exact and commutes with each addition's rounding as
// long as no intermediate at either scale is subnormal or overflows, so a
// table entry is bit-identical to the scalar chain. A table over
// u < 2^min(planes,16) covers almost every pixel with one load; the few
// larger magnitudes take chain. It is built only when every chain it
// holds stays normal and finite (values stay above halfs[floor]*2^-17
// through 16 halvings, and below q*2^16, which q <= 2^1000 keeps under
// MaxFloat64; past it the chain overflows exactly where the oracle
// does, and the doubled shorter chain may not) and is kept
// on the Scratch: it depends on nothing but (q, floor), so decode and
// ReplayScratch share it and a worker coding many chunks at one q fills it
// once. tab[0] is +0: an insignificant pixel.
type reconTab struct {
	q           float64
	floor       int
	thrs, halfs [64]float64
	tab         []uint64
}

// reconFor returns the scratch's table for (q, floor), reset on a key
// change and extended to u < 2^min(planes,16) — less for few pixels.
func (s *Scratch) reconFor(q float64, floor, planes, npix int) *reconTab {
	rc := &s.recon
	if rc.q != q || rc.floor != floor {
		rc.q, rc.floor, rc.tab = q, floor, rc.tab[:0]
		for p := range rc.thrs {
			rc.thrs[p] = q * math.Pow(2, float64(p))
			rc.halfs[p] = rc.thrs[p] / 2
		}
	}
	size := 1 << uint(min(planes, 16, mbits.Len(uint(npix))+3))
	hb := rc.halfs[floor]
	if hb < 0x1p-1000 || q > 0x1p1000 || size <= len(rc.tab) {
		return rc
	}
	if cap(rc.tab) < size {
		rc.tab = append(make([]uint64, 0, size), rc.tab...)
		s.Grows++
	}
	w := max(len(rc.tab), 1)
	rc.tab = rc.tab[:size]
	rc.tab[0] = 0
	for ; w < size; w++ {
		var v float64
		if t := mbits.Len64(uint64(w)) - 1; t <= floor {
			v = 1.5 * rc.thrs[t]
		} else if prev := math.Float64frombits(rc.tab[w>>1]); (w>>uint(floor))&1 != 0 {
			v = 2*prev + hb
		} else {
			v = 2*prev - hb
		}
		rc.tab[w] = math.Float64bits(v)
	}
	return rc
}

// chain is val(u) by the oracle decoder's own update sequence.
func (rc *reconTab) chain(u uint64) float64 {
	if u == 0 {
		return 0
	}
	top := mbits.Len64(u) - 1
	val := 1.5 * rc.thrs[top]
	sign := [2]float64{-1, 1} // exact +-1 multipliers: branch-free refinement
	for p := top - 1; p >= rc.floor; p-- {
		val += float64(rc.halfs[p] * sign[(u>>uint(p))&1]) // no fused multiply-add
	}
	return val
}

// spread8[b] holds bit j of b in the low bit of byte j: the 8-bit to
// 8-byte spread that transposes refinement words into per-pixel bytes.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>uint(j)&1) << uint(8*j)
		}
	}
	return
}()

// reconstruct materializes the output: zeros, then each discovered
// pixel's signed value.
func (d *intDecoder) reconstruct(n int, q float64, floor, planes int, s *Scratch) []float64 {
	s.out = pooled(s.out, n, &s.Grows)
	out := s.out
	clear(out)
	// No pixel below the floor: nothing to look up, and floor may be
	// planes, past the value table's thresholds when planes is 64.
	if npix := int(d.cnt[floor]); npix > 0 {
		d.reconBlocks(out, s.reconFor(q, floor, planes, npix), 0, npix, planes)
	}
	return out
}

// reconBlocks rebuilds pixels [lo, hi) of the discovery list, lo a
// multiple of 64. Per block, each plane below the block's first (highest)
// discovery plane contributes one <= 64-bit load of refinement bits —
// pixels it does not refine yet lie past its pass's end and read as zero —
// which spread8 transposes into byte lanes: byte j&7 of lanes[j>>3] gets
// pixel j's bits for planes 0-7, of lanes[8+j>>3] planes 8-15; planes >=
// 16 reach only a deep stream's first pixels and go bit by bit into wide.
// The block is then walked in runs of equal discovery plane tp (the cnt
// boundaries): u is bit tp plus the gathered bits, and a run at the floor
// has none, so it stores one constant — about half of all pixels at loose
// tolerances, which is what keeps low-rate streams at the old speed.
func (d *intDecoder) reconBlocks(out []float64, rc *reconTab, lo, hi, planes int) {
	floor, tab := rc.floor, rc.tab
	tp := planes - 1
	var wide [64]uint64
	for b := lo; b < hi; b += 64 {
		for int(d.cnt[tp]) <= b {
			tp--
		}
		var lanes [16]uint64
		for p := floor; p < tp; p++ {
			w := d.r.load(d.refStart[p]+uint64(b), uint(min(64, int(d.cnt[p+1])-b)))
			if p < 16 {
				l := lanes[p&8 : p&8+8 : p&8+8]
				for g := range l {
					l[g] |= spread8[uint8(w>>uint(8*g))] << uint(p&7)
				}
				continue
			}
			for ; w != 0; w &= w - 1 {
				wide[mbits.TrailingZeros64(w)] |= 1 << uint(p)
			}
		}
		end := min(b+64, hi)
		for i := b; i < end; {
			for int(d.cnt[tp]) <= i {
				tp--
			}
			runEnd := min(end, int(d.cnt[tp]))
			top := uint64(1) << uint(tp)
			if tp == floor {
				vb := math.Float64bits(1.5 * rc.thrs[tp])
				for ; i < runEnd; i++ {
					pe := uint32(d.lspPos[i])
					out[pe&0x7fffffff] = math.Float64frombits(vb | uint64(pe>>31)<<63)
				}
				continue
			}
			for i < runEnd {
				j := i - b
				sh := uint(j&7) * 8
				l, h := lanes[j>>3]>>sh, lanes[8+(j>>3)]>>sh
				for ge := min(runEnd, i+8-(j&7)); i < ge; i++ {
					u := top | (l & 0xff) | (h&0xff)<<8
					l, h = l>>8, h>>8
					if tp > 16 {
						u |= wide[i-b]
						wide[i-b] = 0
					}
					var vb uint64
					if u < uint64(len(tab)) {
						vb = tab[u]
					} else {
						vb = math.Float64bits(rc.chain(u))
					}
					// val > 0 always, so ORing the packed sign bit into the
					// float is an exact branch-free negate.
					pe := uint32(d.lspPos[i])
					out[pe&0x7fffffff] = math.Float64frombits(vb | uint64(pe>>31)<<63)
				}
			}
		}
	}
}

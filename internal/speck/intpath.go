package speck

import (
	"bytes"
	"math"
	mbits "math/bits"

	"sperr/internal/bits"
	"sperr/internal/grid"
)

// Integer bit-plane path. The quality-bounded encoder quantizes every
// coefficient magnitude once into u = floor(|c|/q) and drives the whole
// bit-plane traversal off uint64 magnitudes: a set first turns significant
// at the plane indexed by the top bit of its box maximum, and a refinement
// bit is (u>>n)&1. Set tops come from the significance octree (octree.go):
// the topology is materialized once per shape and the per-node one-byte
// top table filled in a single bottom-up pass, so per-plane traversal is
// byte-equality tests against a cache-resident table instead of
// re-scanning coefficient boxes — O(coeffs) preprocessing replaces the
// former O(planes x coeffs) scan. Decision bits go straight to the bit
// writer. Refinement bits are transposed once, when a
// pixel is discovered, into one bit slice per plane in discovery order
// (gatherNew); a refinement pass then copies its slice's prefix to the
// writer a word at a time and no per-pixel array is swept per plane.
//
// The streams are bit-identical to the float-residual traversal's, which
// oracle_test.go keeps as the test oracle. There every residual
// subtraction val -= thr happens when val is in [thr, 2*thr), so by
// Sterbenz's lemma it is exact, and the thresholds q*2^n are exact
// power-of-two scalings of q; the float traversal therefore computes
// exact real arithmetic throughout, and its significance and refinement
// decisions are exactly the binary digits of floor(|c|/q). The integer
// path computes those digits directly, with u = floor(|c|/q) obtained
// exactly from one float division corrected by an FMA sign test:
// fl(|c|/q) is within 0.5 of the real quotient when the quotient is below
// 2^52, so the truncated value is off by at most one, and the sign of
// |c| - q*v is computed exactly by FMA because the real value — a
// multiple of 2^-1074 when q is normal — never rounds across zero. That
// needs planes <= maxPlanes and a normal q, which encode's clamp
// guarantees.
//
// The traversal keeps no residuals and no error ledger: only ModeRMSE
// reads the per-plane error record, so PlaneErr2Scratch derives it after
// the fact from the pixel records and the discovery list, with the float
// traversal's additions in its order — plane records, and with them
// ModeRMSE truncation points, match bitwise.

// cpix is one coefficient's per-pixel record for the integer path: the
// signed coefficient and its quantized magnitude floor(|c|/q), packed
// side by side so pixel discovery reads one cache line instead of
// gathering from three parallel arrays. The sign lives in c's sign bit.
type cpix struct {
	c float64
	u uint64
}

type intEncoder struct {
	dims   grid.Dims
	q      float64
	tree   *octree
	tops   []uint8 // per-node significance tops (octree.fillTops)
	pix    []cpix
	w      *bits.Writer
	budget uint64

	lis  [][]int32 // LIS buckets of octree node ids, indexed by depth
	lisT [][]uint8 // per-entry top bytes parallel to lis (sequential scans)
	nd   int
	lsp  []int32 // positions of significant pixels, in discovery order
	// ref holds the refinement bits as bit-plane slices: bit i of the
	// stride words at ref[p*stride:] is bit p of pixel lsp[i]'s magnitude,
	// filled by gatherNew after each sorting pass.
	ref    []uint64
	stride int

	planeBits []uint64
}

// resetLISI truncates the pooled node-id LIS buckets and their parallel
// top-byte buckets.
func (s *Scratch) resetLISI() ([][]int32, [][]uint8) {
	for i := range s.lisI {
		s.lisI[i] = s.lisI[i][:0]
	}
	if len(s.lisI) == 0 {
		s.lisI = make([][]int32, 1, 24)
		s.Grows++
	}
	for i := range s.lisTI {
		s.lisTI[i] = s.lisTI[i][:0]
	}
	for len(s.lisTI) < len(s.lisI) {
		s.lisTI = append(s.lisTI, nil)
	}
	return s.lisI, s.lisTI[:len(s.lisI)]
}

func (e *intEncoder) setup(s *Scratch, n, planes int) {
	s.pixI = pooled(s.pixI, n, &s.Grows)
	e.pix = s.pixI
	e.tree = s.octreeFor(e.dims)
	s.topsT = pooled(s.topsT, e.tree.nodes(), &s.Grows)
	e.tops = s.topsT
	e.lis, e.lisT = s.resetLISI()
	e.nd = 1
	e.lsp = s.lspI[:0]
	// planes-1 slices (the top plane refines nothing) of a bit per coefficient.
	e.stride = (n + 63) / 64
	s.refI = pooled(s.refI, (planes-1)*e.stride, &s.Grows)
	e.ref = s.refI
	clear(e.ref)
	e.planeBits = s.planeBits[:0]
	s.planeErr2 = s.planeErr2[:0]
}

func (e *intEncoder) save(s *Scratch) {
	s.lisI = e.lis
	s.lisTI = e.lisT
	s.lspI = e.lsp
	s.planeBits = e.planeBits
}

// quantize fills the pixel records from coeffs. It also scatters each
// coefficient's leaf top byte (bits.Len64 of u, sign in bit 7) through
// tree.leafOf while the value is in registers — stores retire without
// stalling, where a separate leaf pass would take a cache miss per
// gather.
func (e *intEncoder) quantize(coeffs []float64) {
	q, r := e.q, quantizeRecip(e.q)
	var leafOf []int32
	if e.tree != nil {
		leafOf = e.tree.leafOf
	}
	for i, c := range coeffs {
		u := quantizeOne(math.Abs(c), q, r)
		e.pix[i] = cpix{c: c, u: u}
		if leafOf != nil {
			e.tops[leafOf[i]] = leafTop(c, u)
		}
	}
}

// leafTop is the tops-table byte for one coefficient: the 1-based top bit
// plane of its quantized magnitude, with the sign in bit 7.
func leafTop(c float64, u uint64) uint8 {
	b := uint8(mbits.Len64(u))
	if math.Signbit(c) {
		b |= 0x80
	}
	return b
}

// quantizeRecip returns 1/q for the multiply-based quotient guess, or 0
// to force per-element division when the reciprocal is subnormal and the
// guess could stray beyond the one-step corrections.
func quantizeRecip(q float64) float64 {
	r := 1 / q
	if r < 0x1p-1022 {
		return 0
	}
	return r
}

// quantizeOne computes floor(m/q) exactly: the rounded quotient guess —
// one multiply by the precomputed normal reciprocal, or a division when
// r is the zero sentinel — is off by at most one (the real quotient is
// below 2^52 within maxPlanes, so two roundings move it less than one),
// and the FMA residual sign test corrects it.
func quantizeOne(m, q, r float64) uint64 {
	var u uint64
	if r != 0 {
		u = uint64(m * r)
	} else {
		u = uint64(m / q)
	}
	// u < 2^52, so fu+1 is exactly float64(u+1): one int-to-float
	// conversion feeds both correction tests.
	fu := float64(u)
	if math.FMA(-q, fu+1, m) >= 0 {
		u++
	} else if u > 0 && math.FMA(-q, fu, m) < 0 {
		u--
	}
	return u
}

// encodeInt runs the integer traversal: 1 <= planes <= maxPlanes, q normal.
func encodeInt(coeffs []float64, dims grid.Dims, q float64, maxBits uint64, planes int, maxMag float64, s *Scratch) *Result {
	n := dims.Len()
	e := &intEncoder{dims: dims, q: q, w: s.writer(n), budget: maxBits}
	if maxBits == 0 {
		e.budget = math.MaxUint64
	}
	e.setup(s, n, planes)
	e.quantize(coeffs)
	e.run(planes)
	e.save(s)
	// pixI and lspI now describe this encode; untruncated, they replay it.
	s.intEnc, s.canReplay = true, maxBits == 0
	s.encQ, s.encN, s.encPlanes = q, n, planes
	stream, bitsUsed := finish(e.w, maxBits)
	return &Result{
		Stream: stream, Bits: bitsUsed, NumPlanes: planes, MaxMag: maxMag, Q: q,
		PlaneBits: e.planeBits,
	}
}

// ReplayScratch synthesizes the reconstruction that Decode(stream,
// res.Bits, dims, q, planes) would produce for the full stream of the
// immediately preceding EncodeScratch call on s, without touching the
// stream: every pixel with u = floor(|c|/q) > 0 is exactly the set the
// decoder discovers, and its value is the decoder's val(u) — the reconTab
// entry or chain the fast decoder itself uses — so the result is
// bit-identical to an actual decode. It reports ok=false when the scratch
// has been used since that encode, when the encode was size-truncated, or
// when it does not match (dims, q): q must be the Result's Q.
//
// This is what makes the encoder-side outlier-location stage cheap: the
// pipeline needs "exactly what the decoder will see" and gets it here
// without re-running the set-partitioning traversal or the bit reads.
func ReplayScratch(dims grid.Dims, q float64, s *Scratch) ([]float64, bool) {
	n := dims.Len()
	if !s.canReplay || s.encQ != q || s.encN != n {
		return nil, false
	}
	s.out = pooled(s.out, n, &s.Grows)
	out := s.out
	if s.encPlanes == 0 {
		clear(out) // an empty stream: pixI was never filled
		return out, true
	}
	rc := s.reconFor(q, 0, s.encPlanes, n)
	tab := rc.tab
	for i, px := range s.pixI[:n] {
		var vb uint64
		if px.u < uint64(len(tab)) {
			vb = tab[px.u]
		} else {
			vb = math.Float64bits(rc.chain(px.u))
		}
		// c's sign bit, masked off where u == 0 (vb == 0): those are +0.
		out[i] = math.Float64frombits(vb | (math.Float64bits(px.c)&-vb)>>63<<63)
	}
	return out, true
}

// PlaneErr2Scratch returns the plane-error record of the immediately
// preceding encode on s: entry i is the summed squared coefficient-domain
// error of the reconstruction a decoder would produce from the prefix
// ending at PlaneBits[i]; nil when the scratch has been used since. It is
// derived here, on demand, with the float traversal's additions in its
// order — the index-order sum of m*m less each discovery's m*m in
// discovery order is a plane's insignificant energy, then every pixel
// found so far adds r*r in discovery order — so the two agree bitwise
// (pixel-major keeps that order within each plane's accumulator). A
// pixel's residual at plane p is m - q*(u>>p<<p); the float traversal
// reaches it by Sterbenz-exact subtractions, so it is representable and
// one FMA yields it exactly.
func PlaneErr2Scratch(s *Scratch) []float64 {
	k := len(s.planeBits)
	if !s.intEnc {
		return nil
	}
	if len(s.planeErr2) == k {
		return s.planeErr2
	}
	s.planeErr2 = pooled(s.planeErr2, k, &s.Grows)
	acc := s.planeErr2
	q, planes, pix := s.encQ, s.encPlanes, s.pixI[:s.encN]
	var e2 float64
	for i := range pix {
		m := math.Abs(pix[i].c)
		e2 += m * m
	}
	// Recorded planes are planes-1 down to planes-k; a pixel discovered
	// below them (a size-truncated encode) is in no record.
	npix := 0
	for p := planes - 1; p >= planes-k; p-- {
		for ; npix < len(s.lspI) && mbits.Len64(pix[s.lspI[npix]].u) == p+1; npix++ {
			m := math.Abs(pix[s.lspI[npix]].c)
			e2 -= m * m
		}
		acc[planes-1-p] = e2
	}
	var halfs [53]float64
	for p := range halfs {
		halfs[p] = q * math.Pow(2, float64(p)) / 2
	}
	for _, pos := range s.lspI[:npix] {
		m, u := math.Abs(pix[pos].c), pix[pos].u
		for p := mbits.Len64(u) - 1; p >= planes-k; p-- {
			r := math.FMA(-q, float64(u>>uint(p)<<uint(p)), m) - halfs[p]
			acc[planes-1-p] += r * r
		}
	}
	return acc
}

func (e *intEncoder) ensureDepth(d int) {
	for len(e.lis) <= d {
		e.lis = append(e.lis, nil)
		e.lisT = append(e.lisT, nil)
	}
	if e.nd <= d {
		e.nd = d + 1
	}
}

func (e *intEncoder) run(planes int) {
	e.tree.fillTops(e.tops)
	// The root top == planes always: NumPlanes picks the nmax with
	// q*2^nmax <= maxMag < q*2^(nmax+1), i.e. 2^nmax <= floor(maxMag/q) <
	// 2^(nmax+1).
	if int(e.tops[0]&0x7f) != planes {
		panic("speck: integer plane count disagrees with NumPlanes")
	}
	e.lis[0] = append(e.lis[0], 0)
	e.lisT[0] = append(e.lisT[0], e.tops[0]&0x7f)
	for n := planes - 1; n >= 0; n-- {
		n0 := len(e.lsp) // LSP size before this plane's discoveries
		e.sortingPass(n)
		if e.w.Len() >= e.budget {
			return
		}
		e.gatherNew(n, n0)
		e.refinementPass(n, n0)
		e.planeBits = append(e.planeBits, e.w.Len())
		if e.w.Len() >= e.budget {
			return
		}
	}
}

// sortingPass emits one plane's LIS significance tests. Runs of
// insignificant entries — the common case on every plane — are emitted as
// batched zero bits, and a bucket's untouched prefix is kept in place
// rather than recopied.
func (e *intEncoder) sortingPass(n int) {
	p1 := uint8(n + 1) // tops value of a set significant at this plane
	for depth := e.nd - 1; depth >= 0; depth-- {
		if e.w.Len() >= e.budget {
			return
		}
		bucket := e.lis[depth]
		bt := e.lisT[depth]
		// Scan the flat top-byte array, not tops[bucket[i]]: the bytes
		// travel with the entries, so the per-plane sweep is one
		// vectorized IndexByte per significant entry instead of a random
		// load per entry.
		m := len(bucket)
		i := bytes.IndexByte(bt[:m], p1)
		if i < 0 {
			e.w.WriteZeros(m)
			continue // nothing significant: bucket unchanged
		}
		kept := bucket[:i]
		keptT := bt[:i]
		run := i // zeros pending before the next significance 1-bit
		for {
			// The pending zero run and the 1-bit in a single write.
			if run <= 63 {
				e.w.WriteBits(1<<uint(run), uint(run+1))
			} else {
				e.w.WriteZeros(run)
				e.w.WriteBit(true)
			}
			node := bucket[i]
			i++
			e.descend(node, depth, p1)
			// Dense planes mostly have run length 0-2 between
			// significant entries, where IndexByte's call overhead
			// loses to inline compares; probe a couple of bytes first
			// and vector-scan only genuinely long runs.
			j := m
			for t := i; t < m; t++ {
				if bt[t] == p1 {
					j = t
					break
				}
				if t-i == 2 {
					if off := bytes.IndexByte(bt[t+1:m], p1); off >= 0 {
						j = t + 1 + off
					}
					break
				}
			}
			if j > i {
				kept = append(kept, bucket[i:j]...)
				keptT = append(keptT, bt[i:j]...)
			}
			if j == m {
				e.w.WriteZeros(m - i)
				break
			}
			run = j - i
			i = j
		}
		e.lis[depth] = kept
		e.lisT[depth] = keptT
	}
}

// appendSeq appends the n consecutive node ids first, first+1, ... .
func appendSeq(dst []int32, first int32, n int) []int32 {
	for j := 0; j < n; j++ {
		dst = append(dst, first+int32(j))
	}
	return dst
}

// appendSeqT appends the masked top bytes of the n consecutive nodes
// starting at first — the bytes are L1-hot from the childMask load that
// just classified them.
func appendSeqT(dst []uint8, tops []uint8, first int32, n int) []uint8 {
	for j := 0; j < n; j++ {
		dst = append(dst, tops[first+int32(j)]&0x7f)
	}
	return dst
}

// childMask returns a bitmask of which of the k contiguous children
// starting at first have tops equal to p1. Tops values never exceed 53
// (planes <= maxPlanes = 52), so the eight-byte compare is a
// carry-free SWAR: equal bytes are exactly the ones that do not carry
// into bit 7 under +0x7f, and the multiply gathers the eight marker bits
// into the top byte (exact for all 256 patterns: every product term is a
// distinct power of two below 2^64 or wraps below bit 56).
func childMask(tops []uint8, first int32, k int, p1 uint8) uint32 {
	if int(first)+8 <= len(tops) {
		b := tops[first : first+8 : first+8]
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		x := (v & 0x7f7f7f7f7f7f7f7f) ^ (0x0101010101010101 * uint64(p1))
		m := ^(x + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080
		return uint32((m*0x0002040810204081)>>56) & (1<<uint(k) - 1)
	}
	var mask uint32
	for j := 0; j < k; j++ {
		if tops[first+int32(j)]&0x7f == p1 {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// descend codes a set just found significant. A child is significant
// exactly when its top equals p1 — it cannot exceed the parent's, which is
// p1 — so a whole brood's significance is one SWAR byte-compare mask: runs of
// insignificant children become batched zero bits and bulk LIS appends,
// and both the implied-significance shortcut (sole significant last
// child, whose bit the stream omits) and a significant last child iterate
// into the child instead of recursing.
func (e *intEncoder) descend(node int32, depth int, p1 uint8) {
	t := e.tree
	nd := t.nod[node]
outer:
	for !nd.leaf() {
		first, k := nd.kids()
		depth++
		e.ensureDepth(depth)
		mask := childMask(e.tops, first, k, p1)
		if mask == 1<<uint(k-1) {
			// Only the last child is significant; its bit is implied.
			e.w.WriteZeros(k - 1)
			e.lis[depth] = appendSeq(e.lis[depth], first, k-1)
			e.lisT[depth] = appendSeqT(e.lisT[depth], e.tops, first, k-1)
			node = first + int32(k-1)
			nd = t.nod[node]
			continue
		}
		i := 0
		for {
			rem := mask >> uint(i)
			if rem == 0 {
				e.w.WriteZeros(k - i)
				e.lis[depth] = appendSeq(e.lis[depth], first+int32(i), k-i)
				e.lisT[depth] = appendSeqT(e.lisT[depth], e.tops, first+int32(i), k-i)
				return
			}
			z := mbits.TrailingZeros32(rem)
			if z > 0 {
				e.lis[depth] = appendSeq(e.lis[depth], first+int32(i), z)
				e.lisT[depth] = appendSeqT(e.lisT[depth], e.tops, first+int32(i), z)
				i += z
			}
			c := first + int32(i)
			if i == k-1 {
				// The zero run and the 1-bit in one write (z <= 7).
				e.w.WriteBits(1<<uint(z), uint(z+1))
				node = c
				nd = t.nod[node]
				continue outer
			}
			if cn := t.nod[c]; cn.leaf() {
				// Zero run, 1-bit, and the leaf's sign bit in one write;
				// no recursive call for the densest (deepest) level.
				e.w.WriteBits((1+2*uint64(e.tops[c]>>7))<<uint(z), uint(z+2))
				e.lsp = append(e.lsp, cn.pos())
			} else {
				e.w.WriteBits(1<<uint(z), uint(z+1))
				e.descend(c, depth, p1)
			}
			i++
		}
	}
	// Leaf: the sign rides in the (already hot) tops byte, and everything
	// else about the pixel is deferred to gatherNew after the pass — the
	// traversal never waits on a pixel-record load.
	e.w.WriteBit(e.tops[node]&0x80 != 0)
	e.lsp = append(e.lsp, nd.pos())
}

// gatherNew transposes the magnitudes of the pixels plane tp's sorting
// pass just discovered — lsp[n0:] — into the refinement slices of the
// planes below tp, one 64-aligned block of the discovery index at a time.
// Each u's low two bytes go into byte lanes (the layout the decoder's
// spread8 produces: byte j&7 of lanes[j>>3] for planes 0-7, of
// lanes[8+j>>3] for 8-15); one plane's 64 bits are then eight SWAR
// gathers: mask the plane's bit in every byte and multiply, which collects
// the eight marker bits in the top byte (the partial products land on
// distinct bits, so nothing carries). Planes >= 16 take the few early
// discoveries bit by bit. As a dependence-free batch loop the random
// pixel-record loads overlap instead of stalling the traversal one miss at
// a time; plane 0's discoveries are never refined and cost nothing.
func (e *intEncoder) gatherNew(tp, n0 int) {
	for i := n0; tp > 0 && i < len(e.lsp); {
		blk := i >> 6
		var lanes [16]uint64
		for end := min(len(e.lsp), (blk+1)<<6); i < end; i++ {
			u := e.pix[e.lsp[i]].u
			j := uint(i & 63)
			lanes[j>>3] |= (u & 0xff) << (j & 7 * 8)
			lanes[8+j>>3] |= (u >> 8 & 0xff) << (j & 7 * 8)
			for p := 16; p < tp; p++ {
				e.ref[p*e.stride+blk] |= (u >> uint(p) & 1) << j
			}
		}
		for p := 0; p < min(tp, 16); p++ {
			var w uint64
			for g, l := range lanes[p&8 : p&8+8] {
				w |= (l >> uint(p&7) & 0x0101010101010101) * 0x0102040810204080 >> 56 << uint(8*g)
			}
			e.ref[p*e.stride+blk] |= w
		}
	}
}

// refinementPass emits bit n of the first n0 significant magnitudes —
// the ones discovered on earlier planes; this plane's discoveries sit
// past n0 and get their first refinement next plane — which is the first
// n0 bits of plane n's slice, whole words at a time. The float traversal
// checks no budget mid-pass, so neither do we.
func (e *intEncoder) refinementPass(n, n0 int) {
	words := e.ref[n*e.stride:]
	for i := 0; i < n0; i += 64 {
		e.w.WriteBits(words[i>>6], uint(min(64, n0-i)))
	}
}

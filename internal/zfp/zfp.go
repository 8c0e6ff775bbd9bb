// Package zfp implements a ZFP-style fixed-rate / fixed-accuracy lossy
// compressor for floating-point arrays, the block-transform baseline of
// the paper's evaluation (Sections II and VI; Lindstrom, "Fixed-rate
// compressed floating-point arrays", TVCG 2014).
//
// The pipeline mirrors ZFP's: the volume is partitioned into 4^d blocks;
// each block is converted to a block-floating-point representation with a
// common exponent, decorrelated with ZFP's integer lifting transform along
// each axis, reordered by total sequency, mapped to negabinary, and coded
// bitplane by bitplane with group testing. Fixed-rate mode truncates every
// block at the same bit budget (giving random access and a guaranteed
// rate); fixed-accuracy mode drops bitplanes below a tolerance-derived
// cutoff.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"sperr/internal/bits"
	"sperr/internal/grid"
)

// Mode selects the termination criterion.
type Mode uint8

const (
	// ModeFixedRate truncates each block at Rate bits per value.
	ModeFixedRate Mode = iota
	// ModeFixedAccuracy drops bitplanes whose weight is below Tol.
	ModeFixedAccuracy
)

// Params controls compression.
type Params struct {
	Mode Mode
	Rate float64 // bits per value (ModeFixedRate)
	Tol  float64 // absolute error tolerance (ModeFixedAccuracy)
}

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("zfp: corrupt stream")

// safeLen computes dims.Len with overflow checking: the extents arrive
// from the wire as three u32s whose product can overflow int.
func safeLen(d grid.Dims) (int, bool) {
	if !d.Valid() {
		return 0, false
	}
	xy := uint64(d.NX) * uint64(d.NY)
	if xy > math.MaxInt64/uint64(d.NZ) {
		return 0, false
	}
	return int(xy * uint64(d.NZ)), true
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// guardBits absorbs the L-infinity gain of the inverse transform plus the
// negabinary truncation error so that fixed-accuracy mode respects the
// tolerance: dropped bitplanes contribute up to ~2x the cutoff weight per
// coefficient, and the inverse lifting transform amplifies the worst case
// by a further small factor. Five guard bits (32x) cover both with margin,
// at a modest rate cost — the same conservative stance ZFP itself takes in
// accuracy mode.
const guardBits = 5

// negabinary conversion constants.
const nbMask = 0xaaaaaaaaaaaaaaaa

func int2nb(x int64) uint64 { return (uint64(x) + nbMask) ^ nbMask }
func nb2int(x uint64) int64 { return int64((x ^ nbMask) - nbMask) }

// fwdLift applies ZFP's forward decorrelating transform to four values.
func fwdLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// invLift inverts fwdLift (up to ZFP's intentional low-bit rounding, which
// sits far below the coded precision).
func invLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// perm3 and perm2 order block coefficients by total sequency so that
// significance advances as a prefix during bitplane coding.
var perm3 = makePerm(3)
var perm2 = makePerm(2)

func makePerm(nd int) []int {
	type entry struct{ idx, sum, z, y, x int }
	var entries []entry
	if nd == 3 {
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					entries = append(entries, entry{(z*4+y)*4 + x, x + y + z, z, y, x})
				}
			}
		}
	} else {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				entries = append(entries, entry{y*4 + x, x + y, 0, y, x})
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.sum != b.sum {
			return a.sum < b.sum
		}
		if a.z != b.z {
			return a.z < b.z
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.x < b.x
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.idx
	}
	return out
}

// encodeInts codes the negabinary coefficients bitplane by bitplane with
// ZFP's group-testing scheme. size must be <= 64. It returns the bits
// written. budget limits output (math.MaxInt for unlimited); kmin is the
// lowest bitplane coded.
func encodeInts(w *bits.Writer, budget int, kmin int, data []uint64) int {
	size := len(data)
	written := 0
	emit := func(b bool) bool {
		if written >= budget {
			return false
		}
		w.WriteBit(b)
		written++
		return true
	}
	n := 0
	for k := 63; k >= kmin && written < budget; k-- {
		// Extract bitplane k.
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((data[i] >> uint(k)) & 1) << uint(i)
		}
		// First n bits verbatim (already-significant coefficients).
		for i := 0; i < n; i++ {
			if !emit(x&1 != 0) {
				return written
			}
			x >>= 1
		}
		// Group-test the remainder.
		for n < size {
			if !emit(x != 0) {
				return written
			}
			if x == 0 {
				break
			}
			for n < size-1 {
				b := x&1 != 0
				if !emit(b) {
					return written
				}
				x >>= 1
				n++
				if b {
					goto nextValue
				}
			}
			// n == size-1: the significant value is the last one.
			x >>= 1
			n++
		nextValue:
		}
	}
	return written
}

// decodeInts mirrors encodeInts.
func decodeInts(r *bits.Reader, budget int, kmin int, data []uint64) int {
	size := len(data)
	read := 0
	grab := func() (bool, bool) {
		if read >= budget || r.Remaining() == 0 {
			return false, false
		}
		b := r.ReadBit()
		read++
		return b, true
	}
	n := 0
	for k := 63; k >= kmin && read < budget; k-- {
		var x uint64
		for i := 0; i < n; i++ {
			b, ok := grab()
			if !ok {
				return read
			}
			if b {
				x |= 1 << uint(i)
			}
		}
		for n < size {
			g, ok := grab()
			if !ok {
				goto deposit
			}
			if !g {
				break
			}
			for n < size-1 {
				b, ok := grab()
				if !ok {
					goto deposit
				}
				n++
				if b {
					x |= 1 << uint(n-1)
					goto nextValue
				}
			}
			n++
			x |= 1 << uint(n-1)
		nextValue:
		}
	deposit:
		for i := 0; i < size; i++ {
			if x&(1<<uint(i)) != 0 {
				data[i] |= 1 << uint(k)
			}
		}
	}
	return read
}

// blockDims returns the block geometry for the volume dimensionality.
func blockGeom(d grid.Dims) (nd, size int, perm []int) {
	if d.Is2D() {
		return 2, 16, perm2
	}
	return 3, 64, perm3
}

// Compress compresses data (row-major, extent dims).
func Compress(data []float64, dims grid.Dims, p Params) ([]byte, error) {
	if len(data) != dims.Len() {
		return nil, fmt.Errorf("zfp: %d values for %v", len(data), dims)
	}
	switch p.Mode {
	case ModeFixedRate:
		if !(p.Rate > 0) {
			return nil, errors.New("zfp: fixed-rate mode requires Rate > 0")
		}
	case ModeFixedAccuracy:
		if !(p.Tol > 0) {
			return nil, errors.New("zfp: fixed-accuracy mode requires Tol > 0")
		}
	default:
		return nil, fmt.Errorf("zfp: unknown mode %d", p.Mode)
	}
	nd, size, perm := blockGeom(dims)
	w := bits.NewWriter(dims.Len() * 8)
	block := make([]int64, size)
	nb := make([]uint64, size)
	maxbits := math.MaxInt
	if p.Mode == ModeFixedRate {
		maxbits = int(p.Rate * float64(size))
		if maxbits < 1+17 {
			maxbits = 1 + 17
		}
	}

	forEachBlock(dims, func(x0, y0, z0 int) {
		gatherBlock(data, dims, x0, y0, z0, nd, block)
		encodeBlock(w, block, nb, nd, size, perm, p, maxbits)
	})

	// Container: dims | mode | param | payload bits | payload.
	var buf []byte
	for _, v := range []int{dims.NX, dims.NY, dims.NZ} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, byte(p.Mode))
	par := p.Rate
	if p.Mode == ModeFixedAccuracy {
		par = p.Tol
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(par))
	buf = binary.LittleEndian.AppendUint64(buf, w.Len())
	return append(buf, w.Bytes()...), nil
}

func encodeBlock(w *bits.Writer, block []int64, nb []uint64, nd, size int, perm []int, p Params, maxbits int) {
	start := w.Len()
	// Block-floating-point exponent.
	maxAbs := 0.0
	for _, v := range block {
		f := math.Abs(math.Float64frombits(uint64(v))) // block carries float bits pre-quantization
		if f > maxAbs {
			maxAbs = f
		}
	}
	zeroBlock := maxAbs == 0
	var emax int
	if !zeroBlock {
		_, e := math.Frexp(maxAbs)
		emax = e - 1
		if p.Mode == ModeFixedAccuracy && math.Ldexp(1, emax+1) <= p.Tol {
			zeroBlock = true // everything below tolerance
		}
	}
	if zeroBlock {
		w.WriteBit(false)
	} else {
		w.WriteBit(true)
		w.WriteBits(uint64(uint16(int16(emax))), 16)
		// Quantize to a common scale, two transform guard bits below 2^62.
		// Ldexp, not a multiply by 2^(60-emax): on subnormal blocks that
		// factor overflows.
		ints := make([]int64, size)
		for i, v := range block {
			ints[i] = int64(math.Ldexp(math.Float64frombits(uint64(v)), 62-emax-2))
		}
		// Decorrelate along each axis.
		liftBlock(ints, nd, true)
		// Reorder + negabinary.
		for i, src := range perm {
			nb[i] = int2nb(ints[src])
		}
		kmin := 0
		if p.Mode == ModeFixedAccuracy {
			kmin = accuracyKmin(p.Tol, emax)
		}
		budget := math.MaxInt
		if p.Mode == ModeFixedRate {
			budget = maxbits - int(w.Len()-start)
			if budget < 0 {
				budget = 0
			}
		}
		encodeInts(w, budget, kmin, nb)
	}
	// Fixed rate: pad the block to exactly maxbits.
	if p.Mode == ModeFixedRate {
		for int(w.Len()-start) < maxbits {
			w.WriteBit(false)
		}
	}
}

// accuracyKmin returns the lowest coded bitplane so that the dropped
// weight (after transform amplification, absorbed by guardBits) stays
// below the tolerance.
func accuracyKmin(tol float64, emax int) int {
	// Integer bitplane k has float weight 2^(k + emax + 2 - 62).
	// Require 2^(kmin + emax + 2 - 62 + guardBits) <= tol.
	k := int(math.Floor(math.Log2(tol))) - emax - 2 + 62 - guardBits
	if k < 0 {
		k = 0
	}
	if k > 63 {
		k = 63
	}
	return k
}

// liftBlock applies the transform along all axes of the 4^nd block.
func liftBlock(ints []int64, nd int, forward bool) {
	apply := func(p []int64, s int) {
		if forward {
			fwdLift(p, s)
		} else {
			invLift(p, s)
		}
	}
	if nd == 2 {
		if forward {
			for y := 0; y < 4; y++ {
				apply(ints[y*4:], 1) // along x
			}
			for x := 0; x < 4; x++ {
				apply(ints[x:], 4) // along y
			}
		} else {
			for x := 0; x < 4; x++ {
				apply(ints[x:], 4)
			}
			for y := 0; y < 4; y++ {
				apply(ints[y*4:], 1)
			}
		}
		return
	}
	if forward {
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				apply(ints[(z*4+y)*4:], 1) // x
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				apply(ints[z*16+x:], 4) // y
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				apply(ints[y*4+x:], 16) // z
			}
		}
	} else {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				apply(ints[y*4+x:], 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				apply(ints[z*16+x:], 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				apply(ints[(z*4+y)*4:], 1)
			}
		}
	}
}

// forEachBlock visits block origins in raster order.
func forEachBlock(d grid.Dims, fn func(x0, y0, z0 int)) {
	zStep := 4
	if d.Is2D() {
		zStep = 1
	}
	for z0 := 0; z0 < d.NZ; z0 += zStep {
		for y0 := 0; y0 < d.NY; y0 += 4 {
			for x0 := 0; x0 < d.NX; x0 += 4 {
				fn(x0, y0, z0)
			}
		}
	}
}

// gatherBlock copies a (possibly partial) block, padding by edge
// replication. Values are stashed as raw float bits inside the int64 slice
// so encodeBlock can inspect them before quantization.
func gatherBlock(data []float64, d grid.Dims, x0, y0, z0, nd int, block []int64) {
	bz := 4
	if nd == 2 {
		bz = 1
	}
	for z := 0; z < bz; z++ {
		sz := clamp(z0+z, d.NZ)
		for y := 0; y < 4; y++ {
			sy := clamp(y0+y, d.NY)
			for x := 0; x < 4; x++ {
				sx := clamp(x0+x, d.NX)
				v := data[d.Index(sx, sy, sz)]
				block[(z*4+y)*4+x] = int64(math.Float64bits(v))
			}
		}
	}
}

func clamp(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

// Decompress reverses Compress.
func Decompress(stream []byte) ([]float64, grid.Dims, error) {
	var dims grid.Dims
	const fixed = 12 + 1 + 8 + 8
	if len(stream) < fixed {
		return nil, dims, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	dims = grid.Dims{
		NX: int(binary.LittleEndian.Uint32(stream[0:])),
		NY: int(binary.LittleEndian.Uint32(stream[4:])),
		NZ: int(binary.LittleEndian.Uint32(stream[8:])),
	}
	npts, ok := safeLen(dims)
	if !ok {
		return nil, dims, fmt.Errorf("%w: invalid dims", ErrCorrupt)
	}
	mode := Mode(stream[12])
	par := math.Float64frombits(binary.LittleEndian.Uint64(stream[13:]))
	nbits := binary.LittleEndian.Uint64(stream[21:])
	if nbits > uint64(len(stream)-fixed)*8 {
		return nil, dims, fmt.Errorf("%w: payload declares %d bits, have %d bytes",
			ErrCorrupt, nbits, len(stream)-fixed)
	}
	// Every block costs at least one bit, so the declared geometry cannot
	// exceed the bit budget — this bounds the output allocation by the
	// stream length (64 points per block at most).
	nblocks := uint64(ceilDiv(dims.NX, 4)) * uint64(ceilDiv(dims.NY, 4))
	if !dims.Is2D() {
		nblocks *= uint64(ceilDiv(dims.NZ, 4))
	} else {
		nblocks *= uint64(dims.NZ)
	}
	if nblocks > nbits {
		return nil, dims, fmt.Errorf("%w: %d blocks exceed %d payload bits", ErrCorrupt, nblocks, nbits)
	}
	r := bits.NewReaderBits(stream[29:], nbits)

	p := Params{Mode: mode}
	switch mode {
	case ModeFixedRate:
		p.Rate = par
	case ModeFixedAccuracy:
		p.Tol = par
	default:
		return nil, dims, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, mode)
	}
	nd, size, perm := blockGeom(dims)
	maxbits := math.MaxInt
	if mode == ModeFixedRate {
		maxbits = int(p.Rate * float64(size))
		if maxbits < 1+17 {
			maxbits = 1 + 17
		}
	}
	out := make([]float64, npts)
	block := make([]float64, size)
	nb := make([]uint64, size)
	var derr error
	forEachBlock(dims, func(x0, y0, z0 int) {
		if derr != nil {
			return
		}
		if err := decodeBlock(r, block, nb, nd, size, perm, p, maxbits); err != nil {
			derr = err
			return
		}
		scatterBlock(out, dims, x0, y0, z0, nd, block)
	})
	if derr != nil {
		return nil, dims, derr
	}
	return out, dims, nil
}

func decodeBlock(r *bits.Reader, block []float64, nb []uint64, nd, size int, perm []int, p Params, maxbits int) error {
	start := r.Pos()
	nonzero := r.ReadBit()
	if r.Exhausted() {
		return fmt.Errorf("%w: stream truncated", ErrCorrupt)
	}
	if !nonzero {
		for i := range block {
			block[i] = 0
		}
	} else {
		emax := int(int16(uint16(r.ReadBits(16))))
		if r.Exhausted() {
			return fmt.Errorf("%w: stream truncated", ErrCorrupt)
		}
		for i := range nb {
			nb[i] = 0
		}
		kmin := 0
		if p.Mode == ModeFixedAccuracy {
			kmin = accuracyKmin(p.Tol, emax)
		}
		budget := math.MaxInt
		if p.Mode == ModeFixedRate {
			budget = maxbits - int(r.Pos()-start)
			if budget < 0 {
				budget = 0
			}
		}
		decodeInts(r, budget, kmin, nb)
		ints := make([]int64, size)
		for i, dst := range perm {
			ints[dst] = nb2int(nb[i])
		}
		liftBlock(ints, nd, false)
		for i, v := range ints {
			block[i] = math.Ldexp(float64(v), -(62 - emax - 2))
		}
	}
	if p.Mode == ModeFixedRate {
		// Skip padding to the block boundary.
		for int(r.Pos()-start) < maxbits && r.Remaining() > 0 {
			r.ReadBit()
		}
	}
	return nil
}

// scatterBlock writes the block back, dropping padded samples.
func scatterBlock(out []float64, d grid.Dims, x0, y0, z0, nd int, block []float64) {
	bz := 4
	if nd == 2 {
		bz = 1
	}
	for z := 0; z < bz; z++ {
		if z0+z >= d.NZ {
			break
		}
		for y := 0; y < 4; y++ {
			if y0+y >= d.NY {
				break
			}
			for x := 0; x < 4; x++ {
				if x0+x >= d.NX {
					break
				}
				out[d.Index(x0+x, y0+y, z0+z)] = block[(z*4+y)*4+x]
			}
		}
	}
}

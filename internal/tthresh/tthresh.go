// Package tthresh implements a TTHRESH-style lossy compressor (Ballester-
// Ripoll, Lindstrom, Pajarola, TVCG 2019), the tensor-decomposition
// baseline of the paper's evaluation.
//
// The volume is decomposed with a full HOSVD: for each mode the Gram
// matrix of the unfolding is eigendecomposed (data-dependent bases, unlike
// the fixed bases of ZFP/SPERR), the core tensor is the projection onto
// those bases, and the core is coded bitplane by bitplane until a target
// PSNR is met. Because the factors are orthonormal, the L2 error of the
// truncated core equals the L2 error of the reconstruction, which gives
// the encoder an exact stopping rule. Factor matrices are stored in
// float32, which — as in the real TTHRESH at very tight targets — sets an
// error floor that extra core bits cannot cross (the behaviour the paper
// reports in Section VI-C).
//
// TTHRESH targets an average error, not a point-wise bound; there is no
// PWE mode, exactly as in the paper (Figures 9/10 exclude it for that
// reason).
package tthresh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sperr/internal/bits"
	"sperr/internal/grid"
	"sperr/internal/linalg"
	"sperr/internal/lossless"
)

// Params controls compression.
type Params struct {
	// TargetPSNR is the requested quality in dB, with PSNR defined on the
	// data range: PSNR = 20*log10(range/RMSE). The paper drives TTHRESH
	// with PSNR = (20*log10 2) * idx.
	TargetPSNR float64
}

// ErrCorrupt reports an undecodable stream.
var ErrCorrupt = errors.New("tthresh: corrupt stream")

// corePrecision is the number of integer bitplanes used for the core.
const corePrecision = 52

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

// Compress compresses data (row-major, extent dims).
func Compress(data []float64, dims grid.Dims, p Params) ([]byte, error) {
	if len(data) != dims.Len() {
		return nil, fmt.Errorf("tthresh: %d values for %v", len(data), dims)
	}
	if !(p.TargetPSNR > 0) {
		return nil, errors.New("tthresh: TargetPSNR must be positive")
	}
	n := [3]int{dims.NX, dims.NY, dims.NZ}

	// Target RMSE from PSNR over the data range.
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if rng == 0 {
		rng = 1
	}
	targetRMSE := rng / math.Pow(10, p.TargetPSNR/20)

	// HOSVD: factor per mode from the Gram matrix of the unfolding.
	factors := make([]*linalg.Matrix, 3)
	core := append([]float64(nil), data...)
	for mode := 0; mode < 3; mode++ {
		if n[mode] == 1 {
			factors[mode] = identity(1)
			continue
		}
		g := gram(core, dims, mode)
		_, v := linalg.SymEig(g)
		factors[mode] = v
		core = modeProject(core, dims, v, mode)
	}

	// Bitplane-code the core until the RMSE target is met.
	maxAbs := 0.0
	for _, v := range core {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 1.0
	if s := math.Ldexp(1, corePrecision) / maxAbs / 2; maxAbs > 0 && s <= math.MaxFloat64 {
		scale = s
	} // else a zero or subnormal core: it quantizes to zero

	ints := make([]int64, len(core))
	neg := make([]bool, len(core))
	for i, v := range core {
		q := int64(math.Abs(v) * scale)
		ints[i] = q
		neg[i] = v < 0
	}
	w := bits.NewWriter(len(core))
	sig := make([]bool, len(core))
	recon := make([]int64, len(core))
	// Error budget in core (== data) domain, integer units.
	target2 := targetRMSE * scale * 0.85 // margin for factor quantization
	target2 = target2 * target2 * float64(len(core))
	planes := 0
	for k := corePrecision; k >= 0; k-- {
		planes++
		thr := int64(1) << uint(k)
		for i := range ints {
			if sig[i] {
				// Refinement bit.
				b := ints[i]&thr != 0
				w.WriteBit(b)
				if b {
					recon[i] |= thr
				}
			} else if ints[i] >= thr {
				w.WriteBit(true)
				w.WriteBit(neg[i])
				sig[i] = true
				recon[i] = thr
			} else {
				w.WriteBit(false)
			}
		}
		// Exact residual energy (mid-point reconstruction at this depth).
		var err2 float64
		half := float64(thr) / 2
		for i := range ints {
			var r float64
			if sig[i] {
				r = float64(ints[i]-recon[i]) - half
			} else {
				r = float64(ints[i])
			}
			err2 += r * r
		}
		if err2 <= target2 {
			break
		}
	}

	// Container: dims | psnr | scale | planes | nbits | factors(f32) | planes payload.
	var buf []byte
	for _, v := range n {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.TargetPSNR))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(scale))
	buf = append(buf, byte(planes))
	buf = binary.LittleEndian.AppendUint64(buf, w.Len())
	for _, f := range factors {
		for _, v := range f.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	}
	buf = append(buf, w.Bytes()...)
	return lossless.Compress(buf), nil
}

// Decompress reverses Compress.
func Decompress(stream []byte) ([]float64, grid.Dims, error) {
	var dims grid.Dims
	buf, err := lossless.Decompress(stream)
	if err != nil {
		return nil, dims, err
	}
	const fixed = 12 + 8 + 8 + 1 + 8
	if len(buf) < fixed {
		return nil, dims, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	dims = grid.Dims{
		NX: int(binary.LittleEndian.Uint32(buf[0:])),
		NY: int(binary.LittleEndian.Uint32(buf[4:])),
		NZ: int(binary.LittleEndian.Uint32(buf[8:])),
	}
	total, ok := safeLen(dims)
	if !ok {
		return nil, dims, fmt.Errorf("%w: invalid dims", ErrCorrupt)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(buf[20:]))
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, dims, fmt.Errorf("%w: invalid scale %g", ErrCorrupt, scale)
	}
	planes := int(buf[28])
	if planes < 1 || planes > corePrecision+1 {
		return nil, dims, fmt.Errorf("%w: %d bitplanes (max %d)", ErrCorrupt, planes, corePrecision+1)
	}
	nbits := binary.LittleEndian.Uint64(buf[29:])
	off := fixed
	n := [3]int{dims.NX, dims.NY, dims.NZ}
	factors := make([]*linalg.Matrix, 3)
	for mode := 0; mode < 3; mode++ {
		// Size the factor matrix in uint64: forged extents can overflow the
		// n^2 element count; checking against the bytes actually present
		// also bounds the allocation below.
		nn := uint64(n[mode]) * uint64(n[mode])
		if nn > uint64(len(buf)-off)/4 {
			return nil, dims, fmt.Errorf("%w: factors truncated", ErrCorrupt)
		}
		need := int(nn) * 4
		f := linalg.NewMatrix(n[mode], n[mode])
		for i := range f.Data {
			f.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:])))
		}
		off += need
		factors[mode] = f
	}
	if nbits > uint64(len(buf)-off)*8 {
		return nil, dims, fmt.Errorf("%w: core stream truncated", ErrCorrupt)
	}
	// Every coded plane reads at least one bit per point, so the declared
	// geometry cannot exceed the core bit budget — this bounds the
	// decode-side allocations by the stream length.
	if uint64(total) > nbits {
		return nil, dims, fmt.Errorf("%w: %d points exceed %d core bits", ErrCorrupt, total, nbits)
	}
	r := bits.NewReaderBits(buf[off:], nbits)
	sig := make([]bool, total)
	negs := make([]bool, total)
	recon := make([]int64, total)
	for pi := 0; pi < planes; pi++ {
		k := corePrecision - pi
		thr := int64(1) << uint(k)
		for i := 0; i < total; i++ {
			if sig[i] {
				if r.ReadBit() {
					recon[i] |= thr
				}
			} else if r.ReadBit() {
				negs[i] = r.ReadBit()
				sig[i] = true
				recon[i] = thr
			}
			if r.Exhausted() {
				return nil, dims, fmt.Errorf("%w: core stream truncated", ErrCorrupt)
			}
		}
	}
	lastK := corePrecision - planes + 1
	core := make([]float64, total)
	half := math.Ldexp(1, lastK-1) // mid-point of the last refined interval
	for i := range core {
		if !sig[i] {
			continue
		}
		v := (float64(recon[i]) + half) / scale
		if negs[i] {
			v = -v
		}
		core[i] = v
	}
	// Inverse mode products, reverse order.
	for mode := 2; mode >= 0; mode-- {
		core = modeReconstruct(core, dims, factors[mode], mode)
	}
	return core, dims, nil
}

func identity(n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// gram computes the Gram matrix of the mode-n unfolding:
// G[i][j] = sum over all fibers of a_i * a_j along that mode.
func gram(a []float64, d grid.Dims, mode int) *linalg.Matrix {
	n := [3]int{d.NX, d.NY, d.NZ}
	m := n[mode]
	g := linalg.NewMatrix(m, m)
	stride := [3]int{1, d.NX, d.NX * d.NY}[mode]
	// Iterate over all fibers along the mode.
	outer := [3][2]int{
		{d.NY, d.NZ}, // mode x: fibers indexed by (y, z)
		{d.NX, d.NZ}, // mode y
		{d.NX, d.NY}, // mode z
	}[mode]
	oStride := [3][2]int{
		{d.NX, d.NX * d.NY},
		{1, d.NX * d.NY},
		{1, d.NX},
	}[mode]
	fiber := make([]float64, m)
	for b := 0; b < outer[1]; b++ {
		for a2 := 0; a2 < outer[0]; a2++ {
			base := a2*oStride[0] + b*oStride[1]
			for i := 0; i < m; i++ {
				fiber[i] = a[base+i*stride]
			}
			for i := 0; i < m; i++ {
				fi := fiber[i]
				if fi == 0 {
					continue
				}
				row := g.Data[i*m : (i+1)*m]
				for j := i; j < m; j++ {
					row[j] += fi * fiber[j]
				}
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g
}

// modeProject computes A x_mode U^T: out fiber = U^T * fiber (projection
// onto the eigenbasis).
func modeProject(a []float64, d grid.Dims, u *linalg.Matrix, mode int) []float64 {
	return modeApply(a, d, u, mode, true)
}

// modeReconstruct computes C x_mode U: out fiber = U * fiber.
func modeReconstruct(c []float64, d grid.Dims, u *linalg.Matrix, mode int) []float64 {
	return modeApply(c, d, u, mode, false)
}

func modeApply(a []float64, d grid.Dims, u *linalg.Matrix, mode int, transpose bool) []float64 {
	n := [3]int{d.NX, d.NY, d.NZ}
	m := n[mode]
	out := make([]float64, len(a))
	stride := [3]int{1, d.NX, d.NX * d.NY}[mode]
	outer := [3][2]int{
		{d.NY, d.NZ},
		{d.NX, d.NZ},
		{d.NX, d.NY},
	}[mode]
	oStride := [3][2]int{
		{d.NX, d.NX * d.NY},
		{1, d.NX * d.NY},
		{1, d.NX},
	}[mode]
	fiber := make([]float64, m)
	res := make([]float64, m)
	for b := 0; b < outer[1]; b++ {
		for a2 := 0; a2 < outer[0]; a2++ {
			base := a2*oStride[0] + b*oStride[1]
			for i := 0; i < m; i++ {
				fiber[i] = a[base+i*stride]
			}
			for i := range res {
				res[i] = 0
			}
			if transpose {
				// res[j] = sum_i U[i][j] * fiber[i]
				for i := 0; i < m; i++ {
					fi := fiber[i]
					if fi == 0 {
						continue
					}
					row := u.Data[i*m : (i+1)*m]
					for j := 0; j < m; j++ {
						res[j] += row[j] * fi
					}
				}
			} else {
				// res[i] = sum_j U[i][j] * fiber[j]
				for i := 0; i < m; i++ {
					row := u.Data[i*m : (i+1)*m]
					var s float64
					for j := 0; j < m; j++ {
						s += row[j] * fiber[j]
					}
					res[i] = s
				}
			}
			for i := 0; i < m; i++ {
				out[base+i*stride] = res[i]
			}
		}
	}
	return out
}

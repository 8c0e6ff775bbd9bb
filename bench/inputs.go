package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"sperr/internal/grid"
	"sperr/internal/synth"
)

// fieldRealization is the synth seed of the one spectral realization every
// run compresses. The benchmark's -seed does not pick a new realization:
// across realizations bits_per_point moves 1.47-2.09 at range*1e-2 and
// encode time with it, thirty times the 1% gate, so two seeds would not be
// comparable. The seed instead picks a circular shift of the (periodic)
// field, which moves every chunk boundary but keeps the spectrum and the
// value range, and the region-origin sequence.
const fieldRealization = 1

// inputs is everything a workload is given: the field, the tolerance and
// the seeded region sequence. The programs under test see nothing else of
// the seed.
type inputs struct {
	dims    [3]int
	data    []float64
	tol     float64
	box     [3]int   // region extent: 3/8 of the field edge (48 of 128)
	origins [][3]int // seeded uniform origins; op i reads origins[i % len]
}

// numOrigins is the length of the region sequence. Every round replays the
// same prefix of it, so rounds do identical work and differ only by noise.
const numOrigins = 4096

func makeInputs(n int, tolFrac float64, seed int64) *inputs {
	d := grid.D3(n, n, n)
	base := synth.MirandaPressure(d, fieldRealization)
	lo, hi := base.Range()
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		dims: [3]int{n, n, n},
		data: shifted(base, rng.Intn(n), rng.Intn(n), rng.Intn(n)),
		tol:  (hi - lo) * tolFrac,
	}
	b := n * 3 / 8
	in.box = [3]int{b, b, b}
	in.origins = make([][3]int, numOrigins)
	for i := range in.origins {
		in.origins[i] = [3]int{rng.Intn(n - b + 1), rng.Intn(n - b + 1), rng.Intn(n - b + 1)}
	}
	return in
}

// shifted returns v rotated by (sx, sy, sz) with wrap-around.
func shifted(v *grid.Volume, sx, sy, sz int) []float64 {
	d := v.Dims
	out := make([]float64, d.Len())
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			src := v.Data[d.Index(0, (y+sy)%d.NY, (z+sz)%d.NZ):][:d.NX]
			dst := out[d.Index(0, y, z):][:d.NX]
			copy(dst, src[sx:])
			copy(dst[d.NX-sx:], src[:sx])
		}
	}
	return out
}

func (in *inputs) samples() int { return in.dims[0] * in.dims[1] * in.dims[2] }

// rawMB is the field's size as the float64 input a user hands over, in
// units of 1e6 bytes: the numerator of every throughput.
func (in *inputs) rawMB() float64 { return float64(in.samples()) * 8 / 1e6 }

// cacheSamples is the decoded-cache capacity of a serving node: twice the
// volume, so every chunk stays resident, or an eighth of it when cold.
func (in *inputs) cacheSamples(cold bool) int64 {
	if cold {
		return int64(in.samples() / 8)
	}
	return int64(2 * in.samples())
}

func (in *inputs) boxMB() float64 {
	return float64(in.box[0]*in.box[1]*in.box[2]) * 8 / 1e6
}

// checker judges every output against two references: the original field
// (the paper's point-wise bound) and the oracle, a one-shot
// sperr.Decompress of the same container (bit-identity of every other read
// path). It also keeps the run's attempted and failed operation counts.
type checker struct {
	in     *inputs
	tol    float64 // the bound outputs are held to: the inputs' tolerance
	oracle []float64

	attempted atomic.Int64
	failed    atomic.Int64
	first     atomic.Pointer[string] // what the first failed operation was
}

// op records the verdict on one operation; what names it for the report.
func (c *checker) op(what string, ok bool) {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
		c.first.CompareAndSwap(nil, &what)
	}
}

// firstFailure names the first operation that failed, or is empty.
func (c *checker) firstFailure() string {
	if what := c.first.Load(); what != nil {
		return *what
	}
	return ""
}

// withinBound reports whether every reconstructed value is within the
// tolerance of the original.
func (c *checker) withinBound(recon []float64) bool {
	if len(recon) != len(c.in.data) {
		return false
	}
	for i, x := range c.in.data {
		if math.Abs(x-recon[i]) > c.tol {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// oracleRows calls yield with each x-row of the oracle's box at origin, in
// output order, until it returns false, and reports whether it never did.
func (c *checker) oracleRows(origin, box [3]int, yield func(row []float64) bool) bool {
	d := c.in.dims
	for z := 0; z < box[2]; z++ {
		for y := 0; y < box[1]; y++ {
			if !yield(c.oracle[((origin[2]+z)*d[1]+origin[1]+y)*d[0]+origin[0]:][:box[0]]) {
				return false
			}
		}
	}
	return true
}

// regionMatches reports whether body is byte-for-byte the little-endian
// float64 cutout of the oracle with extent box at origin.
func (c *checker) regionMatches(body []byte, origin, box [3]int) bool {
	if len(body) != box[0]*box[1]*box[2]*8 {
		return false
	}
	return c.oracleRows(origin, box, func(row []float64) bool {
		for _, v := range row {
			if binary.LittleEndian.Uint64(body) != math.Float64bits(v) {
				return false
			}
			body = body[8:]
		}
		return true
	})
}

// cutoutMatches is regionMatches for samples that never left the process.
func (c *checker) cutoutMatches(data []float64, origin, box [3]int) bool {
	if len(data) != box[0]*box[1]*box[2] {
		return false
	}
	return c.oracleRows(origin, box, func(row []float64) bool {
		got := data[:len(row)]
		data = data[len(row):]
		return sameBits(got, row)
	})
}

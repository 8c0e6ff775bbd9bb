package wavelet

import (
	"fmt"
	"math"
	"testing"
)

// kernelField fills n samples from a seeded xorshift generator.
func kernelField(n int, seed uint64) []float64 {
	data := make([]float64, n)
	s := seed | 1
	for i := range data {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		// Mix magnitudes so every lifting step sees non-trivial rounding.
		data[i] = (float64(int64(s))/float64(1<<62))*1e3 + float64(i%17)
	}
	return data
}

// kernelSignals returns the length-n inputs the kernel tests run: one
// mixed-magnitude field and, for the shorter lengths, an impulse at every
// position in three sizes near the top of the range. Somewhere along an
// impulse's path each boundary term sees an |x| in (Max/2, Max), where
// 2*c*x is finite but the mirrored c*(x+x) is not — which pins the form.
// The rest of an impulse signal is subnormals and signed zeros. The
// inverse's last-pair 2*gamma*s1 takes three samples to reach that band
// without a neighbouring stage overflowing first (found by search); the
// remaining sites, alpha's and the forward's 2*gamma*s1, cannot be told
// from their mirrored forms by any input: wherever x+x overflows, so does
// 2*alpha*x, or a stage next to it.
func kernelSignals(n int) [][]float64 {
	sigs := [][]float64{kernelField(n, uint64(n))}
	if n > 24 {
		return sigs
	}
	if nl, nh := (n+1)/2, n/2; nl == nh {
		s := make([]float64, n)
		s[nl-1], s[nl+nh-3], s[nl+nh-2] = 0.827*math.MaxFloat64, -0.874*math.MaxFloat64, -0.373*math.MaxFloat64
		sigs = append(sigs, s)
	}
	tiny := [4]float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040}
	for _, amp := range []float64{0.6, -0.3, 0.15} {
		for i := 0; i < n; i++ {
			s := make([]float64, n)
			for j := range s {
				s[j] = tiny[(i+j)%4]
			}
			s[i] = amp * math.MaxFloat64
			sigs = append(sigs, s)
		}
	}
	return sigs
}

// The line kernels against Forward1D/Inverse1D at every length from the
// minimum through both parities of a few hundred pairs.
func TestLineKernelsMatch1D(t *testing.T) {
	for n := 8; n <= 131; n++ {
		side := make([]float64, (n+1)/2)
		for _, orig := range kernelSignals(n) {
			want := append([]float64(nil), orig...)
			Forward1D(want, nil)
			got := append([]float64(nil), orig...)
			forwardLine(got, side)
			assertBitIdentical(t, got, want, fmt.Sprintf("forwardLine n=%d", n))

			// Inverse of the raw signal, not only of forward output.
			for _, in := range [][]float64{want, orig} {
				want := append([]float64(nil), in...)
				Inverse1D(want, nil)
				got := append([]float64(nil), in...)
				inverseLine(got, side)
				assertBitIdentical(t, got, want, fmt.Sprintf("inverseLine n=%d", n))
			}
		}
	}
}

// The tile kernels against Forward1D/Inverse1D per column, at every
// length and width, inside a wider array (offset base, row stride > w)
// whose cells outside the tile are guards: the reference leaves them as
// they were, so the comparison fails if the kernel writes one. The
// signals go through w columns at a time, so every signal reaches both
// the vector prefix and the scalar tail of the rows.
func TestTileKernelsMatch1D(t *testing.T) {
	eachKernel(t, testTileKernelsMatch1D)
}

func testTileKernelsMatch1D(t *testing.T) {
	const base, pad = 5, 3
	kernels := []struct {
		name   string
		tile   func(data []float64, base, stride, n, w int, st *lift, side []float64)
		scalar func(s, scratch []float64)
	}{{"forwardTile", forwardTile, Forward1D}, {"inverseTile", inverseTile, Inverse1D}}
	for n := 8; n <= 67; n++ {
		sigs := kernelSignals(n)
		for w := 1; w <= panelW; w++ {
			stride := w + pad
			var state lift
			side := make([]float64, (n+1)/2*w)
			for g := 0; g < len(sigs); g += w {
				orig := kernelField(base+n*stride+pad, uint64(n*131+w))
				for x := 0; x < w; x++ {
					for i, v := range sigs[(g+x)%len(sigs)] {
						orig[base+i*stride+x] = v
					}
				}
				for _, k := range kernels {
					want := append([]float64(nil), orig...)
					for x := 0; x < w; x++ {
						lineScalar(want, base+x, stride, n, k.scalar)
					}
					got := append([]float64(nil), orig...)
					k.tile(got, base, stride, n, w, &state, side)
					assertBitIdentical(t, got, want, fmt.Sprintf("%s n=%d w=%d group %d", k.name, n, w, g))
				}
			}
		}
	}
}

// The four-line kernels of the X pass against Forward1D/Inverse1D per
// line, at every length through both parities of a few dozen pairs, the
// lines a stride apart inside a wider array whose other cells are guards.
func TestLineLanesMatch1D(t *testing.T) {
	if !haveLanes {
		t.Skip("no vector lanes: not amd64, or the CPU or OS lacks AVX/YMM state")
	}
	const base, pad = 3, 2
	kernels := []struct {
		name   string
		lines  func(data []float64, off, ls, n int, st *lift, side []float64)
		scalar func(s, scratch []float64)
	}{{"forwardLines", forwardLines, Forward1D}, {"inverseLines", inverseLines, Inverse1D}}
	for n := 8; n <= 67; n++ {
		sigs := kernelSignals(n)
		ls := n + pad
		side := make([]float64, (n+1)/2*4)
		var st lift
		for g := 0; g < len(sigs); g += 4 {
			orig := kernelField(base+4*ls, uint64(n*131+g))
			for j := 0; j < 4; j++ {
				copy(orig[base+j*ls:], sigs[(g+j)%len(sigs)])
			}
			for _, k := range kernels {
				want := append([]float64(nil), orig...)
				for j := 0; j < 4; j++ {
					k.scalar(want[base+j*ls:][:n], nil)
				}
				got := append([]float64(nil), orig...)
				k.lines(got, base, ls, n, &st, side)
				assertBitIdentical(t, got, want, fmt.Sprintf("%s n=%d group %d", k.name, n, g))
			}
		}
	}
}

// Package wavelet implements the CDF 9/7 biorthogonal discrete wavelet
// transform used by SPERR (paper Section III-A).
//
// The transform is computed with the lifting scheme of Daubechies and
// Sweldens, using symmetric (whole-sample) boundary extension and basis
// functions scaled to approximately unit norm, following the QccPack
// implementation the paper borrows from. Because the scaled CDF 9/7 basis is
// near-orthogonal, the L2 error introduced in the coefficient domain is
// approximately the L2 error of the reconstruction, which SPERR's design
// relies on.
//
// Multi-dimensional transforms are separable: each level transforms every
// line of the current approximation box along each active axis, then the
// approximation box shrinks by half (rounding up) along those axes. The
// number of levels per axis of length N is min(6, floor(log2 N) - 2), as in
// the paper.
package wavelet

import "math"

// Lifting constants for the CDF 9/7 filter bank (Daubechies–Sweldens
// factorization at full float64 precision; epsilon normalizes the basis to
// approximately unit norm as in QccPack).
const (
	alpha   = -1.5861343420599235
	beta    = -0.0529801185729614
	gamma   = 0.8829110755309333
	delta   = 0.4435068520439711
	epsilon = 1.1496043988602418
)

// MaxLevels caps the recursion depth of the dyadic decomposition; deeper
// recursion yields diminishing compaction benefit (Section III-A).
const MaxLevels = 6

// Levels returns the number of transform passes applied to a length-n axis:
// min(6, floor(log2 n) - 2), clamped at zero. Axes shorter than 8 samples
// are not transformed.
func Levels(n int) int {
	if n < 8 {
		return 0
	}
	l := int(math.Floor(math.Log2(float64(n)))) - 2
	if l > MaxLevels {
		l = MaxLevels
	}
	if l < 0 {
		l = 0
	}
	return l
}

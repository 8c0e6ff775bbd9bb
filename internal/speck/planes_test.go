package speck

import (
	"math"
	"math/rand"
	"testing"

	"sperr/internal/grid"
)

// The per-plane error estimate must match the error of an actual decode
// truncated at the same plane boundary: this is the invariant behind the
// average-error-targeted mode (paper Section VII).
func TestPlaneStatsMatchDecode(t *testing.T) {
	d := grid.D3(16, 16, 16)
	rng := rand.New(rand.NewSource(3))
	coeffs := randCoeffs(rng, d.Len())
	q := 0.05
	var s Scratch
	res := EncodeScratch(coeffs, d, q, 0, &s)
	planeErr2 := append([]float64(nil), PlaneErr2Scratch(coeffs, &s)...)
	if len(res.PlaneBits) != res.NumPlanes || len(planeErr2) != res.NumPlanes {
		t.Fatalf("PlaneBits has %d entries for %d planes", len(res.PlaneBits), res.NumPlanes)
	}
	for i := range res.PlaneBits {
		rec := Decode(res.Stream, res.PlaneBits[i], d, q, res.NumPlanes)
		var err2 float64
		for j := range coeffs {
			e := rec[j] - coeffs[j]
			err2 += e * e
		}
		est := planeErr2[i]
		// The incremental energy tracking accumulates tiny rounding
		// differences relative to the direct sum.
		if math.Abs(err2-est) > 1e-6*(1+err2) {
			t.Errorf("plane %d: estimated err2 %g, actual %g", i, est, err2)
		}
	}
}

// Plane errors must decrease monotonically and bits increase.
func TestPlaneStatsMonotone(t *testing.T) {
	d := grid.D2(32, 32)
	rng := rand.New(rand.NewSource(8))
	coeffs := randCoeffs(rng, d.Len())
	var s Scratch
	res := EncodeScratch(coeffs, d, 0.01, 0, &s)
	planeErr2 := PlaneErr2Scratch(coeffs, &s)
	for i := 1; i < len(res.PlaneBits); i++ {
		if res.PlaneBits[i] <= res.PlaneBits[i-1] {
			t.Errorf("plane %d: bits %d not increasing", i, res.PlaneBits[i])
		}
		if planeErr2[i] > planeErr2[i-1]*(1+1e-12) {
			t.Errorf("plane %d: err2 %g not decreasing from %g",
				i, planeErr2[i], planeErr2[i-1])
		}
	}
	if n := len(planeErr2); n > 0 {
		// After the final plane every coded coefficient is within q/2.
		bound := float64(d.Len()) * 0.01 * 0.01
		if planeErr2[n-1] > bound*float64(d.Len()) {
			t.Errorf("final plane err2 %g implausibly large", planeErr2[n-1])
		}
	}
}

package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sperr/internal/grid"
)

const roundTripTol = 1e-9

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 100
	}
	return s
}

func TestLevels(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {31, 2},
		{32, 3}, {64, 4}, {128, 5}, {256, 6}, {512, 6}, {4096, 6},
	}
	for _, c := range cases {
		if got := Levels(c.n); got != c.want {
			t.Errorf("Levels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestForwardInverse1DAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 4; n <= 300; n++ {
		orig := randSlice(rng, n)
		s := append([]float64(nil), orig...)
		Forward1D(s, nil)
		Inverse1D(s, nil)
		if d := maxAbsDiff(s, orig); d > roundTripTol {
			t.Fatalf("n=%d: round-trip error %g", n, d)
		}
	}
}

func TestShortSignalsUntouched(t *testing.T) {
	for n := 0; n < 4; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i) + 1
		}
		orig := append([]float64(nil), s...)
		Forward1D(s, nil)
		for i := range s {
			if s[i] != orig[i] {
				t.Fatalf("n=%d: short signal modified", n)
			}
		}
	}
}

// The scaled CDF 9/7 basis is near-orthogonal: the transform should
// approximately preserve the L2 norm (within a few percent).
func TestNearOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 100, 255, 256} {
		s := randSlice(rng, n)
		var before float64
		for _, v := range s {
			before += v * v
		}
		Forward1D(s, nil)
		var after float64
		for _, v := range s {
			after += v * v
		}
		ratio := after / before
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("n=%d: energy ratio %g outside near-orthogonal bounds", n, ratio)
		}
	}
}

// A constant signal must compact entirely into the low-pass band: all
// high-pass coefficients are (near) zero because CDF 9/7 has two vanishing
// moments.
func TestConstantSignalCompaction(t *testing.T) {
	n := 128
	s := make([]float64, n)
	for i := range s {
		s[i] = 3.25
	}
	Forward1D(s, nil)
	low := (n + 1) / 2
	for i := low; i < n; i++ {
		if math.Abs(s[i]) > 1e-9 {
			t.Fatalf("high-pass coeff %d = %g, want ~0", i, s[i])
		}
	}
}

// Linear ramps are annihilated by the high-pass filter (two vanishing
// moments) away from the boundaries. At the boundaries the symmetric
// extension folds the ramp back on itself, so the outermost high-pass
// coefficients are legitimately nonzero; only interior ones are checked.
func TestLinearRampCompaction(t *testing.T) {
	n := 128
	s := make([]float64, n)
	for i := range s {
		s[i] = 2*float64(i) - 17
	}
	Forward1D(s, nil)
	low := (n + 1) / 2
	for i := low + 2; i < n-2; i++ {
		if math.Abs(s[i]) > 1e-8 {
			t.Fatalf("high-pass coeff %d = %g for linear ramp, want ~0", i, s[i])
		}
	}
}

func TestDeinterleaveInterleave(t *testing.T) {
	s := []float64{0, 1, 2, 3, 4, 5, 6}
	deinterleave(s, nil)
	want := []float64{0, 2, 4, 6, 1, 3, 5}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("deinterleave = %v, want %v", s, want)
		}
	}
	interleave(s, nil)
	for i := range s {
		if s[i] != float64(i) {
			t.Fatalf("interleave did not invert: %v", s)
		}
	}
}

func TestPlanSchedule(t *testing.T) {
	p := NewPlan(grid.D3(64, 64, 64))
	if p.NumLevels() != 4 {
		t.Fatalf("NumLevels = %d, want 4", p.NumLevels())
	}
	// Approximation box shrinks by ceil-halving each level.
	wantBox := [][3]int{{64, 64, 64}, {32, 32, 32}, {16, 16, 16}, {8, 8, 8}}
	for i, st := range p.steps {
		if st.nx != wantBox[i][0] || st.ny != wantBox[i][1] || st.nz != wantBox[i][2] {
			t.Errorf("level %d box = %dx%dx%d, want %v", i, st.nx, st.ny, st.nz, wantBox[i])
		}
		if !st.ax || !st.ay || !st.az {
			t.Errorf("level %d: all axes should be active", i)
		}
	}
	for n := 1; n <= 300; n++ {
		assertActiveLengths(t, NewPlan(grid.D3(n, n, n)))
	}
}

// Every pass a plan schedules runs on lines of at least 8 samples — the
// invariant NewPlan states and the fused kernels rely on.
func assertActiveLengths(t *testing.T, p *Plan) {
	t.Helper()
	for i, st := range p.steps {
		if st.ax && st.nx < 8 || st.ay && st.ny < 8 || st.az && st.nz < 8 {
			t.Fatalf("%v level %d: active axis shorter than 8 in box %dx%dx%d", p.Dims(), i, st.nx, st.ny, st.nz)
		}
	}
}

func TestPlanAnisotropic(t *testing.T) {
	// 64 gets 4 levels, 8 gets 1 level: the z axis must go inactive after
	// the first level.
	p := NewPlan(grid.D3(64, 64, 8))
	if p.NumLevels() != 4 {
		t.Fatalf("NumLevels = %d, want 4", p.NumLevels())
	}
	if !p.steps[0].az {
		t.Error("level 0 should transform z")
	}
	for i := 1; i < 4; i++ {
		if p.steps[i].az {
			t.Errorf("level %d should not transform z", i)
		}
	}
	// Axes that go inactive at different depths, in every position.
	for n := 1; n <= 300; n++ {
		assertActiveLengths(t, NewPlan(grid.D3(n, 301-n, 8)))
		assertActiveLengths(t, NewPlan(grid.D3(64, n, 301-n)))
		assertActiveLengths(t, NewPlan(grid.D3(301-n, 7, n)))
	}
}

func roundTrip3D(t *testing.T, d grid.Dims, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := randSlice(rng, d.Len())
	data := append([]float64(nil), orig...)
	p := NewPlan(d)
	p.Forward(data)
	p.Inverse(data)
	if diff := maxAbsDiff(data, orig); diff > roundTripTol {
		t.Fatalf("%v: round-trip error %g", d, diff)
	}
}

func TestForwardInverse3D(t *testing.T) {
	dims := []grid.Dims{
		grid.D3(16, 16, 16),
		grid.D3(32, 32, 32),
		grid.D3(17, 19, 23), // odd, prime extents
		grid.D3(64, 8, 8),
		grid.D3(8, 64, 16),
		grid.D3(33, 32, 31),
		grid.D2(64, 64),  // 2D slice
		grid.D2(100, 37), // 2D non-pow2
		grid.D3(5, 5, 5), // too small to transform at all
	}
	for i, d := range dims {
		roundTrip3D(t, d, int64(i))
	}
}

func TestForward3DCompaction(t *testing.T) {
	// A smooth field must concentrate nearly all energy in a small
	// fraction of coefficients.
	d := grid.D3(32, 32, 32)
	data := make([]float64, d.Len())
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				data[d.Index(x, y, z)] = math.Sin(float64(x)*0.2) *
					math.Cos(float64(y)*0.15) * math.Sin(float64(z)*0.1+1)
			}
		}
	}
	var total float64
	for _, v := range data {
		total += v * v
	}
	p := NewPlan(d)
	p.Forward(data)
	// Energy in the top 5% largest-magnitude coefficients.
	mags := make([]float64, len(data))
	for i, v := range data {
		mags[i] = v * v
	}
	// Partial selection via simple threshold sweep is overkill; sort copy.
	sorted := append([]float64(nil), mags...)
	for i := range sorted { // insertion would be O(n^2); use sort.Float64s instead
		_ = i
	}
	sortFloat64s(sorted)
	topN := len(sorted) / 20
	var top float64
	for i := len(sorted) - topN; i < len(sorted); i++ {
		top += sorted[i]
	}
	if top < 0.99*total {
		t.Errorf("top 5%% coefficients hold %.4f of energy, want > 0.99", top/total)
	}
}

func sortFloat64s(s []float64) {
	// small helper to avoid importing sort in several spots
	quickSort(s, 0, len(s)-1)
}

func quickSort(s []float64, lo, hi int) {
	for lo < hi {
		p := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSort(s, lo, j)
			lo = i
		} else {
			quickSort(s, i, hi)
			hi = j
		}
	}
}

// Property: transforms are linear.
func TestQuickLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 {
			return true
		}
		n := 48
		a := randSlice(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = a[i] * scale
		}
		Forward1D(a, nil)
		Forward1D(b, nil)
		for i := range a {
			if math.Abs(b[i]-a[i]*scale) > 1e-6*(1+math.Abs(a[i]*scale)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForward3D64(b *testing.B) {
	d := grid.D3(64, 64, 64)
	rng := rand.New(rand.NewSource(1))
	data := randSlice(rng, d.Len())
	p := NewPlan(d)
	b.SetBytes(int64(d.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(data)
		p.Inverse(data)
	}
}

package wavelet

import (
	"fmt"
	"math"
	"testing"

	"sperr/internal/grid"
)

// panelTestDims stresses the tiled passes across tile-boundary and
// degenerate shapes: 1-thick axes, odd/prime extents, exact panelW
// multiples, panelW remainders, lengths below the transform minimum, the
// minimum itself, and 100 cubed, whose levels 100/50/25/13 reach odd
// lengths at depth.
var panelTestDims = []grid.Dims{
	{NX: 1, NY: 37, NZ: 1},
	{NX: 1, NY: 1, NZ: 29},
	{NX: 5, NY: 7, NZ: 3},
	{NX: 17, NY: 9, NZ: 33},
	{NX: 16, NY: 16, NZ: 16},
	{NX: 31, NY: 4, NZ: 5},
	{NX: 32, NY: 32, NZ: 32},
	{NX: 33, NY: 13, NZ: 11},
	{NX: 48, NY: 5, NZ: 23},
	{NX: 3, NY: 41, NZ: 2},
	{NX: 64, NY: 7, NZ: 1},
	{NX: 8, NY: 8, NZ: 8},
	{NX: 19, NY: 24, NZ: 10},
	{NX: 130, NY: 9, NZ: 8},
	{NX: 100, NY: 100, NZ: 100},
	// Tile widths that are not multiples of 4 at several levels (22/11/6
	// and 38/19/10 columns), so the vector rows' scalar tails run deep in
	// the hierarchy too.
	{NX: 22, NY: 40, NZ: 12},
	{NX: 38, NY: 26, NZ: 21},
}

func panelTestField(d grid.Dims, seed uint64) []float64 {
	return kernelField(d.Len(), seed)
}

func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// eachKernel runs test once with the vector lanes and once with the Go
// kernels alone. Where the CPU or GOARCH has no lanes, the first is
// skipped.
func eachKernel(t *testing.T, test func(t *testing.T)) {
	defer func(saved bool) { useLanes = saved }(useLanes)
	for _, lanes := range []bool{true, false} {
		name := "go"
		if lanes {
			name = "lanes"
		}
		t.Run(name, func(t *testing.T) {
			if lanes && !haveLanes {
				t.Skip("no vector lanes: not amd64, or the CPU or OS lacks AVX2/YMM state")
			}
			useLanes = lanes
			test(t)
		})
	}
}

// The fused passes must reproduce the scalar gather/scatter reference
// bit-for-bit on every shape, forward and at every inverse depth.
func TestBlockedMatchesScalarReference(t *testing.T) {
	eachKernel(t, testBlockedMatchesScalarReference)
}

func testBlockedMatchesScalarReference(t *testing.T) {
	for _, d := range panelTestDims {
		p := NewPlan(d)
		orig := panelTestField(d, uint64(d.NX*1000003+d.NY*1009+d.NZ))

		want := append([]float64(nil), orig...)
		p.forwardScalarRef(want)

		got := append([]float64(nil), orig...)
		p.ForwardScratch(got, nil)
		assertBitIdentical(t, got, want, d.String()+" forward")

		for drop := 0; drop <= p.NumLevels(); drop++ {
			wantInv := append([]float64(nil), want...)
			p.inverseToLevelScalarRef(wantInv, drop)
			gotInv := append([]float64(nil), want...)
			p.InverseToLevel(gotInv, drop)
			assertBitIdentical(t, gotInv, wantInv, fmt.Sprintf("%v inverse to level %d", d, drop))
		}
	}
}

// One field of the values where a dropped, reordered or reassociated
// operation shows: subnormals and signed zeros throughout, and a sparse
// scatter of magnitudes around MaxFloat64/2, beyond which the mirrored
// boundary form c*(x+x) overflows where 2*c*x does not (the kernel tests
// place such a value at every boundary position; here they cross levels
// and axes). The shapes' tile widths leave every remainder mod 4.
func TestEdgeValuesMatchScalarReference(t *testing.T) {
	eachKernel(t, testEdgeValuesMatchScalarReference)
}

func testEdgeValuesMatchScalarReference(t *testing.T) {
	small := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030, 1, -1}
	huge := []float64{math.MaxFloat64 / 2, -math.MaxFloat64 / 2, math.MaxFloat64 * 0.6, -math.MaxFloat64 * 0.3}
	for _, d := range []grid.Dims{{NX: 19, NY: 24, NZ: 10}, {NX: 16, NY: 9, NZ: 8}, {NX: 22, NY: 40, NZ: 12}, {NX: 29, NY: 17, NZ: 13}} {
		p := NewPlan(d)
		orig := make([]float64, d.Len())
		s := uint64(d.NX)
		for i := range orig {
			s = s*6364136223846793005 + 1442695040888963407
			if r := s >> 33; r%16 == 0 {
				orig[i] = huge[r/16%uint64(len(huge))]
			} else {
				orig[i] = small[r/16%uint64(len(small))]
			}
		}
		want := append([]float64(nil), orig...)
		p.forwardScalarRef(want)
		got := append([]float64(nil), orig...)
		p.Forward(got)
		assertBitIdentical(t, got, want, d.String()+" edge forward")

		// The raw field as inverse input too: the forward output has
		// lost most of the huge values to overflow.
		for _, in := range [][]float64{orig, want} {
			wantInv := append([]float64(nil), in...)
			p.inverseToLevelScalarRef(wantInv, 0)
			gotInv := append([]float64(nil), in...)
			p.Inverse(gotInv)
			assertBitIdentical(t, gotInv, wantInv, d.String()+" edge inverse")
		}
	}
}

// A warmed scratch must stop growing, and the transform on it allocates
// nothing at all.
func TestScratchSteadyState(t *testing.T) {
	d := grid.Dims{NX: 40, NY: 33, NZ: 21}
	p := NewPlan(d)
	s := &Scratch{}
	work := panelTestField(d, 7)
	p.ForwardScratch(work, s)
	p.InverseScratch(work, s)
	before := s.Grows
	if a := testing.AllocsPerRun(5, func() {
		p.ForwardScratch(work, s)
		p.InverseScratch(work, s)
	}); a != 0 {
		t.Fatalf("serial transform allocates %v times per run, want 0", a)
	}
	if s.Grows != before {
		t.Fatalf("scratch grew after warm-up: %d -> %d", before, s.Grows)
	}
}

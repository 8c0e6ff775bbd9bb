package speck

import (
	"math"
	"testing"

	"sperr/internal/grid"
)

func intTestField(n int, seed uint64, scale float64) []float64 {
	data := make([]float64, n)
	s := seed | 1
	for i := range data {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		data[i] = (float64(int64(s)) / float64(1<<62)) * scale
	}
	// Sprinkle exact zeros and dead-zone values.
	for i := 0; i < n; i += 97 {
		data[i] = 0
	}
	return data
}

// The integer encoder must produce streams bit-identical to the float
// oracle's, along with identical plane records, across shapes, step sizes,
// and size budgets.
func TestIntPathMatchesFloatPath(t *testing.T) {
	cases := []struct {
		dims  grid.Dims
		q     float64
		scale float64
		bits  uint64
	}{
		{grid.Dims{NX: 16, NY: 16, NZ: 16}, 1e-3, 1.0, 0},
		{grid.Dims{NX: 16, NY: 16, NZ: 16}, 1e-3, 1.0, 5000},
		{grid.Dims{NX: 17, NY: 9, NZ: 5}, 3.7e-4, 10.0, 0},
		{grid.Dims{NX: 5, NY: 7, NZ: 3}, 0.125, 4.0, 0},
		{grid.Dims{NX: 1, NY: 64, NZ: 1}, 1e-2, 1.0, 0},
		{grid.Dims{NX: 24, NY: 17, NZ: 9}, 1e-6, 1.0, 0},     // many planes (~20)
		{grid.Dims{NX: 8, NY: 8, NZ: 8}, 1e-12, 1e3, 0},      // ~50 planes, near the 52 limit
		{grid.Dims{NX: 16, NY: 16, NZ: 1}, 2.5e-3, 1.0, 300}, // truncates mid-sorting
	}
	for ci, tc := range cases {
		coeffs := intTestField(tc.dims.Len(), uint64(ci)*0x9E3779B97F4A7C15+1, tc.scale)
		var maxMag float64
		for _, c := range coeffs {
			if m := math.Abs(c); m > maxMag {
				maxMag = m
			}
		}
		if planes := NumPlanes(maxMag, tc.q); planes < 1 || planes > maxPlanes {
			t.Fatalf("case %d: %d planes, want 1..%d (no clamp)", ci, planes, maxPlanes)
		}

		var si Scratch
		ref, refErr2 := encodeFloat(coeffs, tc.dims, tc.q, tc.bits)
		got := EncodeScratch(coeffs, tc.dims, tc.q, tc.bits, &si)
		// The oracle records plane errors inline; the encoder derives them
		// on demand.
		gotErr2 := PlaneErr2Scratch(coeffs, &si)
		if len(refErr2) != len(ref.PlaneBits) || len(gotErr2) != len(got.PlaneBits) {
			t.Fatalf("case %d: %d/%d error records for %d/%d planes", ci, len(refErr2), len(gotErr2), len(ref.PlaneBits), len(got.PlaneBits))
		}
		if got.Q != tc.q {
			t.Fatalf("case %d: coded at step %g, asked for %g", ci, got.Q, tc.q)
		}

		if got.Bits != ref.Bits || got.NumPlanes != ref.NumPlanes || got.MaxMag != ref.MaxMag {
			t.Fatalf("case %d: header mismatch: bits %d/%d planes %d/%d max %v/%v",
				ci, got.Bits, ref.Bits, got.NumPlanes, ref.NumPlanes, got.MaxMag, ref.MaxMag)
		}
		if len(got.Stream) != len(ref.Stream) {
			t.Fatalf("case %d: stream length %d vs %d", ci, len(got.Stream), len(ref.Stream))
		}
		for i := range ref.Stream {
			if got.Stream[i] != ref.Stream[i] {
				t.Fatalf("case %d: stream byte %d differs: %02x vs %02x", ci, i, got.Stream[i], ref.Stream[i])
			}
		}
		if len(got.PlaneBits) != len(ref.PlaneBits) {
			t.Fatalf("case %d: plane count %d vs %d", ci, len(got.PlaneBits), len(ref.PlaneBits))
		}
		for i := range ref.PlaneBits {
			if got.PlaneBits[i] != ref.PlaneBits[i] {
				t.Fatalf("case %d: PlaneBits[%d] = %d, want %d", ci, i, got.PlaneBits[i], ref.PlaneBits[i])
			}
			if math.Float64bits(gotErr2[i]) != math.Float64bits(refErr2[i]) {
				t.Fatalf("case %d: PlaneErr2[%d] = %x, want %x", ci, i, gotErr2[i], refErr2[i])
			}
		}
	}
}

// Exhaustive quantizer check: the FMA-corrected division must compute
// floor(m/q) exactly, including at exact multiples of q.
func TestIntQuantizeExactFloor(t *testing.T) {
	qs := []float64{1e-3, 3.7e-4, 0.125, 1.0, 7.3e-10, 0x1p-1022}
	s := uint64(0x1234567)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for _, q := range qs {
		var coeffs []float64
		for i := 0; i < 2000; i++ {
			u := next() % (1 << 30)
			switch i % 4 {
			case 0:
				coeffs = append(coeffs, q*float64(u)) // near-exact multiples
			case 1:
				coeffs = append(coeffs, q*(float64(u)+0.5))
			case 2:
				coeffs = append(coeffs, math.Nextafter(q*float64(u), 0))
			default:
				coeffs = append(coeffs, float64(int64(next()))/float64(1<<40)*q*1e6)
			}
		}
		e := &intEncoder{q: q, dims: grid.D3(len(coeffs), 1, 1)}
		e.setup(&Scratch{}, len(coeffs), 1)
		e.quantize(coeffs)
		for i, c := range coeffs {
			m := math.Abs(c)
			u := e.un[e.tree.leafOf[i]-e.tree.leaf0]
			// Defining property of the exact floor: q*u <= m < q*(u+1),
			// tested with exact big-float arithmetic.
			if big := new(bigProd).set(q, u); big.gt(m) {
				t.Fatalf("q=%g m=%x: u=%d too big", q, m, u)
			}
			if big := new(bigProd).set(q, u+1); !big.gt(m) {
				t.Fatalf("q=%g m=%x: u=%d too small", q, m, u)
			}
		}
	}
}

// bigProd compares q*u against m exactly using a two-term (hi+lo) product.
type bigProd struct{ hi, lo float64 }

func (b *bigProd) set(q float64, u uint64) *bigProd {
	uf := float64(u)
	b.hi = q * uf
	b.lo = math.FMA(q, uf, -b.hi) // exact low part of the product
	return b
}

// gt reports q*u > m exactly.
func (b *bigProd) gt(m float64) bool {
	if b.hi != m {
		return b.hi > m
	}
	return b.lo > 0
}

// ne reports q*u != m exactly.
func (b *bigProd) ne(m float64) bool { return b.hi != m || b.lo != 0 }

// ReplayScratch must reproduce the decoder's reconstruction bit-for-bit.
func TestReplayMatchesDecode(t *testing.T) {
	cases := []struct {
		dims  grid.Dims
		q     float64
		scale float64
	}{
		{grid.Dims{NX: 16, NY: 16, NZ: 16}, 1e-3, 1.0},
		{grid.Dims{NX: 17, NY: 9, NZ: 5}, 3.7e-4, 10.0},
		{grid.Dims{NX: 5, NY: 7, NZ: 3}, 0.125, 4.0},
		{grid.Dims{NX: 24, NY: 17, NZ: 9}, 1e-6, 1.0},
	}
	// Replay walks the nodes from the first leaf on and skips internal
	// ones; a shape whose leaves sit on two or more BFS levels interleaves
	// the two, so at least one case must have such a shape.
	mixed := false
	for ci, tc := range cases {
		coeffs := intTestField(tc.dims.Len(), uint64(ci)*7919+3, tc.scale)
		s := &Scratch{}
		res := EncodeScratch(coeffs, tc.dims, tc.q, 0, s)
		replay, ok := ReplayScratch(tc.dims, tc.q, s)
		if !ok {
			t.Fatalf("case %d: replay refused", ci)
		}
		want := Decode(res.Stream, res.Bits, tc.dims, tc.q, res.NumPlanes)
		for i := range want {
			if math.Float64bits(replay[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d: replay[%d] = %x, decode = %x", ci, i, replay[i], want[i])
			}
		}
		tr := buildOctree(tc.dims)
		if lastLevel := tr.levels[len(tr.levels)-2]; tr.leaf0 < lastLevel {
			mixed = true
		}
	}
	if !mixed {
		t.Fatal("no case has leaves above the deepest BFS level")
	}
	// Size-truncated encodes must refuse replay.
	dims := grid.Dims{NX: 16, NY: 16, NZ: 16}
	coeffs := intTestField(dims.Len(), 5, 1.0)
	s := &Scratch{}
	EncodeScratch(coeffs, dims, 1e-3, 4000, s)
	if _, ok := ReplayScratch(dims, 1e-3, s); ok {
		t.Fatal("replay accepted a truncated encode")
	}
	// Mismatched q must refuse replay.
	EncodeScratch(coeffs, dims, 1e-3, 0, s)
	if _, ok := ReplayScratch(dims, 2e-3, s); ok {
		t.Fatal("replay accepted a mismatched q")
	}
	// So must other dims with the same sample count, after a coded encode
	// and after an empty one.
	if _, ok := ReplayScratch(grid.D3(64, 8, 8), 1e-3, s); ok {
		t.Fatal("replay accepted 64x8x8 after a 16x16x16 encode")
	}
	if res := EncodeScratch(make([]float64, dims.Len()), dims, 1e-3, 0, s); res.NumPlanes != 0 {
		t.Fatalf("an all-zero field coded %d planes", res.NumPlanes)
	}
	if _, ok := ReplayScratch(grid.D3(64, 8, 8), 1e-3, s); ok {
		t.Fatal("replay accepted 64x8x8 after an empty 16x16x16 encode")
	}
	if _, ok := ReplayScratch(dims, 1e-3, s); !ok {
		t.Fatal("replay refused the empty encode's own dims")
	}
}

// Integer-path streams must decode to the same reconstruction as before,
// including truncated prefixes.
func TestIntPathDecodeRoundTrip(t *testing.T) {
	dims := grid.Dims{NX: 24, NY: 17, NZ: 9}
	coeffs := intTestField(dims.Len(), 99, 5.0)
	q := 1e-4
	var s Scratch
	res := EncodeScratch(coeffs, dims, q, 0, &s)
	planeErr2 := PlaneErr2Scratch(coeffs, &s)
	var totalE2 float64
	for _, c := range coeffs {
		totalE2 += c * c
	}
	out := Decode(res.Stream, res.Bits, dims, q, res.NumPlanes)
	for i, c := range coeffs {
		if math.Abs(out[i]-c) >= q {
			t.Fatalf("coeff %d: |%v - %v| >= q", i, out[i], c)
		}
	}
	// Every plane prefix decodes without error and within its recorded L2.
	for pi, pb := range res.PlaneBits {
		part := Decode(res.Stream, pb, dims, q, res.NumPlanes)
		var err2 float64
		for i := range coeffs {
			d := part[i] - coeffs[i]
			err2 += d * d
		}
		// PlaneErr2 is bit-identical to the float oracle (tested separately);
		// against a freshly summed err2 the encoder's running subtraction
		// accumulates cancellation error proportional to the field energy.
		if err2 > planeErr2[pi]*(1+1e-6)+1e-9*totalE2 {
			t.Fatalf("plane %d: err2 %g exceeds recorded %g", pi, err2, planeErr2[pi])
		}
	}
}

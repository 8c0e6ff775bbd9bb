package outlier

// Differential tests: the coder in outlier.go against the one it replaced
// (oracle_test.go). Streams must be byte-equal, pass and bit counts equal,
// decoded lists equal to the last float bit, and every truncation of a
// stream must decode to the same partial list.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffCase is one seeded outlier list. genOutliers returns positions in
// random order, so these also take the encoder's sort path; ascending
// inputs are covered by sorting a copy.
type diffCase struct {
	name string
	n    int
	tol  float64
	outs []Outlier
}

func diffCases() []diffCase {
	var cases []diffCase
	add := func(name string, n int, tol float64, outs []Outlier) {
		cases = append(cases, diffCase{name, n, tol, outs})
	}
	rng := rand.New(rand.NewSource(20230614))
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 4097, 65537, 262144} {
		for _, density := range []float64{0.0001, 0.001, 0.025, 0.10, 0.20} {
			k := max(int(float64(n)*density), 1)
			scales := []float64{1.2, 3, 40, 1e6} // 1 ... 20 passes
			if n > 60000 {
				scales = []float64{3, 1e6} // the big arrays dominate the run time
			}
			for _, scale := range scales {
				tol := math.Exp(rng.NormFloat64() * 4)
				add(fmt.Sprintf("n%d/d%g/x%g", n, density, scale), n, tol, genOutliers(rng, n, k, tol, scale))
			}
		}
	}
	// All negative.
	neg := genOutliers(rng, 5000, 400, 0.25, 9)
	for i := range neg {
		neg[i].Corr = -math.Abs(neg[i].Corr)
	}
	add("all-negative", 5000, 0.25, neg)
	// Many points share a magnitude, some exactly on a threshold tol*2^p
	// (significance is strict, so these sit on the wrong side of a plane).
	dup := genOutliers(rng, 9001, 900, 0.5, 2)
	for i := range dup {
		m := []float64{0.75, 1, 2, 4, 4.000000000000001, 7.5}[i%6]
		dup[i].Corr = math.Copysign(m, dup[i].Corr)
	}
	add("shared-magnitudes", 9001, 0.5, dup)
	// Every point an outlier; inliers and an exact-tol value mixed in.
	dense := make([]Outlier, 777)
	for i := range dense {
		dense[i] = Outlier{Pos: i, Corr: math.Copysign(0.1+rng.Float64()*3, rng.Float64()-0.5)}
	}
	dense[5].Corr = 1
	add("dense-with-inliers", 777, 1, dense)
	// The widest pass count a float64 allows without infinities.
	add("many-passes", 300, 1e-300, []Outlier{{Pos: 299, Corr: 1e300}, {Pos: 0, Corr: -3e-300}, {Pos: 150, Corr: 2}})
	return cases
}

func sameList(a, b []Outlier) bool {
	return slices.EqualFunc(a, b, func(x, y Outlier) bool {
		return x.Pos == y.Pos && math.Float64bits(x.Corr) == math.Float64bits(y.Corr)
	})
}

func TestDifferentialAgainstOracle(t *testing.T) {
	var s Scratch // shared across cases: stale scratch state must not leak
	for _, c := range diffCases() {
		want := oracleEncode(c.n, c.tol, c.outs)
		ascending := slices.Clone(c.outs)
		slices.SortFunc(ascending, byPos)
		for _, in := range [][]Outlier{c.outs, ascending} {
			got := EncodeScratch(c.n, c.tol, in, &s)
			if !bytes.Equal(got.Stream, want.Stream) || got.Bits != want.Bits || got.NumPasses != want.NumPasses {
				t.Fatalf("%s: stream differs from the oracle's (%d bits / %d passes, want %d / %d)",
					c.name, got.Bits, got.NumPasses, want.Bits, want.NumPasses)
			}
		}
		stream := want.Stream
		wantList := oracleDecode(stream, want.Bits, c.n, c.tol, want.NumPasses)
		if got := DecodeScratch(stream, want.Bits, c.n, c.tol, want.NumPasses, &s); !sameList(got, wantList) {
			t.Fatalf("%s: decoded list differs from the oracle's", c.name)
		}
		// Fewer passes than were coded (a stale header) is a legal replay too.
		for passes := 1; passes < want.NumPasses; passes += 1 + passes/3 {
			if got := DecodeScratch(stream, want.Bits, c.n, c.tol, passes, &s); !sameList(got, oracleDecode(stream, want.Bits, c.n, c.tol, passes)) {
				t.Fatalf("%s: decoded list at %d of %d passes differs from the oracle's", c.name, passes, want.NumPasses)
			}
		}
	}
}

func TestNumPassesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		tol := math.Exp(rng.NormFloat64() * 20)
		maxCorr := tol * math.Exp(rng.Float64()*40-2)
		if i%7 == 0 {
			maxCorr = tol * math.Ldexp(1, rng.Intn(30)) // exactly on a threshold
		}
		if got, want := NumPasses(maxCorr, tol), oracleNumPasses(maxCorr, tol); got != want {
			t.Fatalf("NumPasses(%g, %g) = %d, oracle %d", maxCorr, tol, got, want)
		}
	}
	for _, c := range [][2]float64{{math.Inf(1), 1}, {1, 5e-324}, {math.MaxFloat64, 5e-324}, {math.NaN(), 1}, {1, math.NaN()}, {1, 0}, {1, -1}} {
		if got, want := NumPasses(c[0], c[1]), oracleNumPasses(c[0], c[1]); got != want {
			t.Fatalf("NumPasses(%g, %g) = %d, oracle %d", c[0], c[1], got, want)
		}
	}
}

// Every bit prefix of a small stream, and a stratified sample of prefixes
// of a 64^3-sized one, must decode to the oracle's partial list: the
// window reader may not see one bit more or fewer than the bit-at-a-time
// reader did.
func TestTruncationSweepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Scratch
	check := func(name string, n int, tol float64, res *Result, nbits uint64) {
		t.Helper()
		want := oracleDecode(res.Stream, nbits, n, tol, res.NumPasses)
		if got := DecodeScratch(res.Stream, nbits, n, tol, res.NumPasses, &s); !sameList(got, want) {
			t.Fatalf("%s: prefix of %d/%d bits decodes to %d points, oracle %d (or values differ)",
				name, nbits, res.Bits, len(got), len(want))
		}
	}
	small := genOutliers(rng, 301, 40, 1, 12)
	res := oracleEncode(301, 1, small)
	for nbits := uint64(0); nbits <= res.Bits+9; nbits++ { // past the end: the budget clamps
		check("small", 301, 1, res, nbits)
	}
	n := 64 * 64 * 64
	big := genOutliers(rng, n, n/10, 0.01, 6)
	res = oracleEncode(n, 0.01, big)
	for nbits := uint64(0); nbits < res.Bits; nbits += 1 + uint64(rng.Intn(int(res.Bits/50))) {
		check("64^3", n, 0.01, res, nbits)
	}
	// The bits around every window boundary of the first refills.
	for nbits := uint64(50); nbits < 300; nbits++ {
		check("64^3 head", n, 0.01, res, nbits)
	}
}

// ApplyScratch is the decode the codec runs: it must leave the array as
// DecodeScratch's list added point by point would, bit for bit, on whole
// and on truncated streams.
func TestApplyMatchesDecodeThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for _, c := range diffCases() {
		res := oracleEncode(c.n, c.tol, c.outs)
		for _, nbits := range []uint64{res.Bits, res.Bits / 3} {
			base := make([]float64, c.n)
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			want := slices.Clone(base)
			list := oracleDecode(res.Stream, nbits, c.n, c.tol, res.NumPasses)
			for _, o := range list {
				want[o.Pos] += o.Corr
			}
			if applied := ApplyScratch(base, res.Stream, nbits, c.tol, res.NumPasses, &s); applied != len(list) {
				t.Fatalf("%s: applied %d corrections, the list has %d", c.name, applied, len(list))
			}
			for i := range base {
				if math.Float64bits(base[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s at %d bits: element %d is %v, want %v", c.name, nbits, i, base[i], want[i])
				}
			}
		}
	}
}

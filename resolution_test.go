package sperr

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/synth"
)

// resolutionFields are the sweep's inputs: four internal/synth sets, and
// adversarial fields at the edges of float64 — a large-magnitude
// oscillation, a lone spike on zeros, values near MaxFloat64/8 (at 16^3
// the forward transform overflows, so SPECK codes nothing and the outlier
// coder carries the chunk), an all-subnormal field, and a large offset
// under a small signal.
func resolutionFields() []struct {
	name string
	dims [3]int
	data []float64
} {
	type field = struct {
		name string
		dims [3]int
		data []float64
	}
	d := grid.D3(24, 20, 16)
	dims := [3]int{d.NX, d.NY, d.NZ}
	fields := []field{
		{"Miranda Pressure", dims, synth.MirandaPressure(d, 1).Data},
		{"S3D Temperature", dims, synth.S3DTemperature(d, 1).Data},
		{"Nyx Dark Matter Density", dims, synth.NyxDarkMatterDensity(d, 1).Data},
		{"S3D X Velocity", dims, synth.S3DVelocityX(d, 1).Data},
	}
	offset := synth.MirandaPressure(d, 2).Data
	for i := range offset {
		offset[i] = 300 + 0.01*offset[i]
	}
	fields = append(fields, field{"300 + 0.01*Miranda Pressure", dims, offset})
	cube := func(n int, f func(i int) float64) field {
		v := make([]float64, n*n*n)
		for i := range v {
			v[i] = f(i)
		}
		return field{dims: [3]int{n, n, n}, data: v}
	}
	add := func(name string, fl field) {
		fl.name = name
		fields = append(fields, fl)
	}
	add("8^3 1e10*sin", cube(8, func(i int) float64 { return 1e10 * math.Sin(0.37*float64(i)) }))
	add("8^3 lone spike", cube(8, func(i int) float64 {
		if i == 200 {
			return 1
		}
		return 0
	}))
	nearMax := func(i int) float64 { return math.MaxFloat64 / 8 * (0.5 + 0.4*math.Sin(0.37*float64(i))) }
	add("8^3 near MaxFloat64/8", cube(8, nearMax))
	add("16^3 near MaxFloat64/8", cube(16, nearMax))
	add("8^3 all subnormal", cube(8, func(i int) float64 { return 1e-310 * (1.5 + math.Sin(0.37*float64(i))) }))
	return fields
}

// TestBoundHoldsOrEncodeRefuses is the point-wise contract at every
// tolerance: across the fields above, tolerances from range*1e-2 down to
// 1e-300 (a decade apart, plus 1, 2 and 4 times the floor ulp(max|x|),
// just below it, and the pinned 1e-7, 1e-40 and 1e-50), and all five
// backends plus adaptive selection, every compression either decodes
// within t — exactly, no slack — or is refused with
// ErrToleranceBelowResolution, and every tolerance below the floor is
// refused. That pins the cases that once decoded silently out of bounds
// on the 8^3 1e10*sin field (ulp 2^-19): SPERR at 1e-50 (worst error
// 2.1e28 t), ZFP and adaptive selection at 1e-7 (1.19 t). It also reports
// the deepest SPECK plane count and outlier pass count any admissible
// encode reaches (DESIGN.md 4h records them).
func TestBoundHoldsOrEncodeRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps thousands of compressions")
	}
	coders := []string{"sperr", "sz", "zfp", "tthresh", "mgard", "adaptive"}
	var maxPlanes, maxPasses int
	aboveFloor := map[string]int{} // refusals at or above ulp(max|x|)
	for _, f := range resolutionFields() {
		lo, hi, maxAbs := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range f.data {
			lo, hi, maxAbs = math.Min(lo, v), math.Max(hi, v), math.Max(maxAbs, math.Abs(v))
		}
		floor := math.Nextafter(maxAbs, math.Inf(1)) - maxAbs
		if maxAbs == 0 || math.IsInf(floor, 0) {
			t.Fatalf("%s: degenerate field", f.name)
		}
		tols := []float64{floor, 2 * floor, 4 * floor, math.Nextafter(floor, 0), 1e-7, 1e-40, 1e-50}
		for k := 2; ; k++ {
			tol := (hi - lo) * math.Pow(10, -float64(k))
			if tol < 1e-300 && tol < floor/1e3 || tol == 0 {
				break
			}
			tols = append(tols, tol)
		}
		var fieldPlanes, fieldPasses int
		for _, coder := range coders {
			for _, tol := range tols {
				if tol == 0 {
					continue // Nextafter(floor, 0) on a subnormal field
				}
				stream, err := compressWith(coder, f.data, f.dims, tol)
				if tol < floor && !errors.Is(err, ErrToleranceBelowResolution) {
					t.Fatalf("%s %s tol %g < ulp %g: err %v, want ErrToleranceBelowResolution", f.name, coder, tol, floor, err)
				}
				if errors.Is(err, ErrToleranceBelowResolution) {
					if tol >= floor {
						aboveFloor[f.name+" "+coder]++
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s tol %g (ulp %g): %v", f.name, coder, tol, floor, err)
				}
				rec, _, err := Decompress(stream)
				if err != nil {
					t.Fatalf("%s %s tol %g: decode: %v", f.name, coder, tol, err)
				}
				for i, v := range f.data {
					if e := math.Abs(rec[i] - v); !(e <= tol) {
						t.Fatalf("%s %s tol %g (%.3g ulp): sample %d off by %g = %.3g t",
							f.name, coder, tol, tol/floor, i, e, e/tol)
					}
				}
				planes, passes := speckDepth(t, stream)
				fieldPlanes, fieldPasses = max(fieldPlanes, planes), max(fieldPasses, passes)
			}
		}
		t.Logf("%s: deepest admissible SPERR chunk %d planes, %d outlier passes", f.name, fieldPlanes, fieldPasses)
		maxPlanes, maxPasses = max(maxPlanes, fieldPlanes), max(maxPasses, fieldPasses)
	}
	t.Logf("deepest admissible encode: %d SPECK planes, %d outlier passes", maxPlanes, maxPasses)
	// Above the floor only SPERR's verify of an overflowed transform may
	// refuse (directly, or as adaptive selection's winner).
	for k, n := range aboveFloor {
		t.Logf("refused at or above the floor: %s, %d tolerances", k, n)
		if !strings.HasPrefix(k, "16^3 near MaxFloat64/8 ") {
			t.Errorf("%s: %d refusals at or above ulp(max|x|)", k, n)
		}
	}
	if maxPlanes > 52 || maxPasses > 255 {
		t.Fatalf("%d planes, %d outlier passes: past the encoder's ceiling or the header byte", maxPlanes, maxPasses)
	}
}

func compressWith(coder string, data []float64, dims [3]int, tol float64) ([]byte, error) {
	opts := &Options{ChunkDims: [3]int{16, 16, 16}, Workers: 2}
	var stream []byte
	var err error
	if coder == "adaptive" {
		stream, _, err = CompressAdaptive(data, dims, tol, opts)
	} else {
		if coder != "sperr" {
			opts.Codec = coder
		}
		stream, _, err = CompressPWE(data, dims, tol, opts)
	}
	return stream, err
}

// speckDepth returns the largest SPECK plane count and outlier pass count
// among the stream's SPERR-coded chunks, read from each frame's header.
func speckDepth(t *testing.T, stream []byte) (planes, passes int) {
	t.Helper()
	info, err := chunk.Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range info.Chunks {
		if c.Codec != codec.CodecSPERR {
			continue
		}
		frame := stream[c.Offset+4 : c.Offset+4+c.CompressedBytes]
		if info.Version == 3 {
			frame = frame[1:] // the codec tag
		}
		meta, err := codec.DescribeChunk(frame)
		if err != nil {
			t.Fatal(err)
		}
		planes, passes = max(planes, meta.Planes), max(passes, meta.OutlierPasses)
	}
	return planes, passes
}

package codec

// Backend registry, analyzer, and adaptive-selection unit tests. The
// registry's CodecID values are wire format (the v3 frame tag), so their
// numeric assignments are pinned here.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"sperr/internal/grid"
)

func backendField(dims grid.Dims, rough bool) []float64 {
	data := make([]float64, dims.Len())
	i := 0
	for z := 0; z < dims.NZ; z++ {
		for y := 0; y < dims.NY; y++ {
			for x := 0; x < dims.NX; x++ {
				if rough {
					// Deterministic broadband hash noise.
					h := uint64(x*73856093 ^ y*19349663 ^ z*83492791)
					h ^= h >> 33
					h *= 0xff51afd7ed558ccd
					h ^= h >> 33
					data[i] = float64(h%10000)/1000 + math.Sin(2.1*float64(x))
				} else {
					data[i] = 0.01*float64(x) + 0.002*float64(y)*float64(z)
				}
				i++
			}
		}
	}
	return data
}

// The tag values are container-v3 wire format: frozen forever.
func TestCodecIDWireValues(t *testing.T) {
	want := map[CodecID]string{0: "sperr", 1: "sz", 2: "zfp", 3: "tthresh", 4: "mgard"}
	for id, name := range want {
		if got := id.String(); got != name {
			t.Errorf("CodecID %d named %q, want %q", id, got, name)
		}
		back, ok := ParseCodecName(name)
		if !ok || back != id {
			t.Errorf("ParseCodecName(%q) = %d,%v, want %d", name, back, ok, id)
		}
		b, ok := Lookup(id)
		if !ok {
			t.Fatalf("Lookup(%d) missing", id)
		}
		if b.ID() != id || b.Name() != name {
			t.Errorf("backend %d reports ID %d name %q", id, b.ID(), b.Name())
		}
	}
	if _, ok := Lookup(CodecID(5)); ok {
		t.Error("Lookup(5) succeeded for an unregistered id")
	}
	if _, ok := ParseCodecName("lz4"); ok {
		t.Error("ParseCodecName accepted an unknown name")
	}
	if len(Backends()) != len(want) {
		t.Errorf("Backends() lists %d codecs, want %d", len(Backends()), len(want))
	}
}

// Every backend: PWE round-trip on an odd extent, self-description, and
// byte-repeatable encodes through a reused scratch arena (the property
// adaptive selection's determinism rests on).
func TestBackendContract(t *testing.T) {
	dims := grid.Dims{NX: 17, NY: 9, NZ: 7}
	data := backendField(dims, true)
	p := Params{Mode: ModePWE, Tol: 1e-2}
	for _, b := range Backends() {
		s := NewScratch()
		stream, st, err := b.Encode(data, dims, p, s)
		if err != nil {
			t.Fatalf("%s: encode: %v", b.Name(), err)
		}
		if st == nil || st.Codec != b.ID() {
			t.Fatalf("%s: stats codec %+v", b.Name(), st)
		}
		for r := 0; r < 3; r++ {
			again, _, err := b.Encode(data, dims, p, s)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", b.Name(), err)
			}
			if !bytes.Equal(again, stream) {
				t.Fatalf("%s: encode not byte-repeatable (%d vs %d bytes)",
					b.Name(), len(again), len(stream))
			}
		}
		rec, err := b.Decode(stream, dims, s)
		if err != nil {
			t.Fatalf("%s: decode: %v", b.Name(), err)
		}
		for i := range data {
			if math.Abs(rec[i]-data[i]) > p.Tol*(1+1e-9) {
				t.Fatalf("%s: PWE violated at %d: %g vs %g", b.Name(), i, rec[i], data[i])
			}
		}
		meta, err := b.Describe(stream)
		if err != nil {
			t.Fatalf("%s: describe: %v", b.Name(), err)
		}
		if meta.Codec != b.ID() {
			t.Errorf("%s: Describe codec %d", b.Name(), meta.Codec)
		}
	}
}

// Malformed inputs must fail as typed errors on every backend — never
// panic, never allocate unboundedly. (The salvage path depends on this for
// non-SPERR chunks.)
func TestBackendDecodeMalformed(t *testing.T) {
	dims := grid.Dims{NX: 8, NY: 8, NZ: 8}
	data := backendField(dims, false)
	p := Params{Mode: ModePWE, Tol: 1e-3}
	for _, b := range Backends() {
		s := NewScratch()
		stream, _, err := b.Encode(data, dims, p, s)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		cases := [][]byte{
			nil,
			{},
			{0x00},
			stream[:1],
			stream[:len(stream)/2],
			stream[:len(stream)-1],
			bytes.Repeat([]byte{0xFF}, 64),
		}
		for f := 0; f < len(stream); f += 7 {
			mut := bytes.Clone(stream)
			mut[f] ^= 0x80
			cases = append(cases, mut)
		}
		for ci, in := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s case %d: panic: %v", b.Name(), ci, r)
					}
				}()
				rec, err := b.Decode(in, dims, s)
				if err == nil && len(rec) != dims.Len() {
					t.Fatalf("%s case %d: nil error with %d values", b.Name(), ci, len(rec))
				}
				_, _ = b.Describe(in)
			}()
		}
	}
}

func TestProfileChunk(t *testing.T) {
	dims := grid.Dims{NX: 16, NY: 16, NZ: 16}
	flat := make([]float64, dims.Len())
	for i := range flat {
		flat[i] = 3.25
	}
	p := ProfileChunk(flat, dims)
	if !p.Constant || p.Variance != 0 || p.Mean != 3.25 {
		t.Fatalf("constant chunk profiled as %+v", p)
	}

	smooth := backendField(dims, false)
	ps := ProfileChunk(smooth, dims)
	if ps.Constant {
		t.Fatal("smooth chunk profiled as constant")
	}
	noisy := backendField(dims, true)
	pn := ProfileChunk(noisy, dims)
	if pn.Roughness <= ps.Roughness {
		t.Errorf("roughness failed to separate noise (%g) from smooth (%g)",
			pn.Roughness, ps.Roughness)
	}
	// Determinism: same data, same profile.
	if again := ProfileChunk(noisy, dims); again != pn {
		t.Errorf("profile not deterministic: %+v vs %+v", again, pn)
	}
}

func TestTrialBlock(t *testing.T) {
	// Small chunk: trial block must be the chunk itself, flagged exact.
	small := grid.Dims{NX: 16, NY: 16, NZ: 16}
	data := backendField(small, false)
	sub, sd, exact := trialBlock(data, small)
	if !exact || sd != small || len(sub) != len(data) {
		t.Fatalf("16^3 trial block: exact=%v dims=%v", exact, sd)
	}

	// Large chunk: centered 32^3 sub-block, values matching the source.
	big := grid.Dims{NX: 48, NY: 40, NZ: 33}
	bd := backendField(big, true)
	sub, sd, exact = trialBlock(bd, big)
	if exact {
		t.Fatal("48x40x33 trial block flagged exact")
	}
	if sd != (grid.Dims{NX: 32, NY: 32, NZ: 32}) {
		t.Fatalf("trial dims %v", sd)
	}
	x0, y0, z0 := (big.NX-32)/2, (big.NY-32)/2, (big.NZ-32)/2
	for z := 0; z < sd.NZ; z += 7 {
		for y := 0; y < sd.NY; y += 5 {
			for x := 0; x < sd.NX; x += 3 {
				if sub[sd.Index(x, y, z)] != bd[big.Index(x0+x, y0+y, z0+z)] {
					t.Fatalf("trial block sample (%d,%d,%d) not centered copy", x, y, z)
				}
			}
		}
	}
}

func TestEncodeAdaptiveContract(t *testing.T) {
	dims := grid.Dims{NX: 16, NY: 16, NZ: 16}
	s := NewScratch()
	p := Params{Mode: ModeAdaptive, Tol: 1e-3}

	// Constant chunks short-circuit to SPERR without trials.
	flat := make([]float64, dims.Len())
	id, stream, st, err := EncodeAdaptive(flat, dims, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if id != CodecSPERR || st.Codec != CodecSPERR {
		t.Fatalf("constant chunk chose %s", id)
	}
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}

	// A chunk no larger than the trial edge: the winner is provably the
	// minimum over all backends' full encodes.
	data := backendField(dims, true)
	id, stream, _, err = EncodeAdaptive(data, dims, p, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		alt, _, err := b.Encode(data, dims, trialParams(b.ID(), p), s)
		if err != nil {
			continue
		}
		if len(alt) < len(stream) {
			t.Errorf("adaptive chose %s at %d bytes but %s codes %d",
				id, len(stream), b.Name(), len(alt))
		}
		if len(alt) == len(stream) && b.ID() < id {
			t.Errorf("tie at %d bytes broke to %s, not lowest id %s", len(stream), id, b.Name())
		}
	}

	// The winning stream decodes under the tag's backend within Tol.
	b, ok := Lookup(id)
	if !ok {
		t.Fatalf("winner %d not in registry", id)
	}
	rec, err := b.Decode(stream, dims, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(rec[i]-data[i]) > p.Tol*(1+1e-9) {
			t.Fatalf("adaptive PWE violated at %d", i)
		}
	}

	// Mode guard: EncodeAdaptive refuses non-adaptive params.
	if _, _, _, err := EncodeAdaptive(data, dims, Params{Mode: ModePWE, Tol: 1e-3}, s); err == nil {
		t.Error("EncodeAdaptive accepted ModePWE")
	}
	// Shape guard.
	if _, _, _, err := EncodeAdaptive(data[:10], dims, p, s); !errors.Is(err, ErrDims) {
		t.Errorf("short slice error = %v, want ErrDims", err)
	}
}

func TestDescribeTagged(t *testing.T) {
	dims := grid.Dims{NX: 8, NY: 8, NZ: 8}
	data := backendField(dims, false)
	s := NewScratch()
	for _, b := range Backends() {
		stream, _, err := b.Encode(data, dims, Params{Mode: ModePWE, Tol: 1e-3}, s)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		tagged := append([]byte{byte(b.ID())}, stream...)
		meta, err := DescribeTagged(tagged)
		if err != nil {
			t.Fatalf("%s: DescribeTagged: %v", b.Name(), err)
		}
		if meta.Codec != b.ID() {
			t.Errorf("%s: meta codec %d", b.Name(), meta.Codec)
		}
	}
	if _, err := DescribeTagged([]byte{99, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag error = %v, want ErrCorrupt", err)
	}
	if _, err := DescribeTagged(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty payload error = %v, want ErrCorrupt", err)
	}
}

// BenchmarkProfileChunk isolates the analyzer: its cost must stay a few
// percent of a chunk encode (BenchmarkAdaptiveSelect at the root measures
// the end-to-end overhead).
func BenchmarkProfileChunk(b *testing.B) {
	dims := grid.Dims{NX: 64, NY: 64, NZ: 64}
	data := backendField(dims, true)
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProfileChunk(data, dims)
	}
}

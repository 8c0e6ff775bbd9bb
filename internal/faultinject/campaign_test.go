package faultinject

// The fault-injection campaign: every mutant of the golden fixtures must
// decode without panicking, within a deadline, under an allocation cap —
// and salvage must recover at least every fully intact frame while never
// delivering a chunk whose payload bytes were touched. Mutants of the
// retired container v1 fixture must be refused by every reader, and
// repaired only into a container that strict-decodes.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sperr"
	"sperr/internal/chunk"
)

const (
	// mutantDeadline bounds one mutant's full check (salvage + audit +
	// repair round-trip). A hang here is a liveness bug, not slowness: the
	// fixtures are a few kilobytes.
	mutantDeadline = 20 * time.Second
	// allocCap bounds the heap allocated while salvaging one mutant of a
	// ~3700-sample fixture. A forged header or length prefix that drives
	// allocation past this is exactly the bug the bound exists to catch.
	allocCap = 64 << 20
)

func TestMain(m *testing.M) {
	// Cap decode-side allocation globally, as any service feeding
	// untrusted bytes to the decoder would.
	chunk.MaxDecodePoints = 1 << 22
	os.Exit(m.Run())
}

func loadFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return data
}

func TestCampaignV2(t *testing.T) {
	runCampaign(t, "golden_pwe_24x17x9_v2.sperr")
}

// TestCampaignV3 runs the identical contract over the mixed-codec
// adaptive fixture: frame damage on non-SPERR chunks must be absorbed,
// attributed, and repaired exactly like SPERR ones.
func TestCampaignV3(t *testing.T) {
	runCampaign(t, "golden_adaptive_48x32x32_v3.sperr")
}

// runMutants checks every mutant under the deadline, failing on a panic,
// a hang or a broken contract.
func runMutants(t *testing.T, muts []Mutant, check func(Mutant) error) {
	for _, m := range muts {
		m := m
		done := make(chan error, 1)
		go func() {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
				done <- err
			}()
			err = check(m)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		case <-time.After(mutantDeadline):
			t.Fatalf("%s: exceeded %v deadline (hang)", m.Name, mutantDeadline)
		}
	}
}

func runCampaign(t *testing.T, fixture string) {
	stream := loadFixture(t, fixture)
	baseline, dims, err := sperr.Decompress(stream)
	if err != nil {
		t.Fatalf("baseline decode: %v", err)
	}
	muts, err := Campaign(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) < 40 {
		t.Fatalf("campaign produced only %d mutants", len(muts))
	}
	t.Logf("%s: %d mutants", fixture, len(muts))
	runMutants(t, muts, func(m Mutant) error { return checkMutant(m, baseline, dims) })
}

// checkMutant runs the full salvage contract against one mutant.
func checkMutant(m Mutant, baseline []float64, dims [3]int) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, gotDims, rep, err := sperr.DecompressSalvageWorkers(m.Data, math.NaN(), 1)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > allocCap {
		return fmt.Errorf("salvage allocated %d bytes (cap %d)", d, allocCap)
	}
	if err != nil {
		// Only an unusable fixed header excuses a salvage error; all
		// frame- and footer-level damage must be absorbed.
		if m.HeaderIntact {
			return fmt.Errorf("salvage failed despite intact header: %v", err)
		}
		return nil
	}
	if !m.HeaderIntact {
		// A damaged header that still parses (e.g. a truncation past the
		// header) may legitimately salvage; nothing more to assert against
		// the original geometry.
		return nil
	}
	if gotDims != dims {
		return fmt.Errorf("dims %v, want %v", gotDims, dims)
	}

	recovered := map[int]bool{}
	for _, c := range rep.Chunks {
		if c.Recovered {
			recovered[c.Index] = true
		}
	}
	// Lower bound: every fully intact frame must be recovered.
	for _, i := range m.IntactChunks {
		if !recovered[i] {
			return fmt.Errorf("intact chunk %d not recovered (report: %+v)", i, rep.Chunks[i])
		}
	}
	// Upper bound: recovering a chunk whose payload bytes were damaged
	// would deliver corrupt samples as good data.
	payloadOK := map[int]bool{}
	for _, i := range m.PayloadIntact {
		payloadOK[i] = true
	}
	for i := range recovered {
		if !payloadOK[i] {
			return fmt.Errorf("chunk %d recovered from a damaged payload", i)
		}
	}

	// Content oracle: recovered intact chunks reproduce the baseline
	// bit-for-bit; lost chunks are all-NaN.
	intact := map[int]bool{}
	for _, i := range m.IntactChunks {
		intact[i] = true
	}
	for _, c := range rep.Chunks {
		checkContent := c.Recovered && intact[c.Index]
		for z := 0; z < c.Dims.NZ; z++ {
			for y := 0; y < c.Dims.NY; y++ {
				for x := 0; x < c.Dims.NX; x++ {
					i := ((c.Origin[2]+z)*dims[1]+c.Origin[1]+y)*dims[0] + c.Origin[0] + x
					switch {
					case checkContent:
						if math.Float64bits(data[i]) != math.Float64bits(baseline[i]) {
							return fmt.Errorf("chunk %d sample (%d,%d,%d) differs from baseline",
								c.Index, x, y, z)
						}
					case !c.Recovered:
						if !math.IsNaN(data[i]) {
							return fmt.Errorf("lost chunk %d sample (%d,%d,%d) = %g, want NaN",
								c.Index, x, y, z, data[i])
						}
					}
				}
			}
		}
	}

	// Audit agrees with salvage on what is recoverable (both paths verify
	// payloads against checksums; decode of a verified frame never fails).
	arep, err := sperr.Audit(m.Data)
	if err != nil {
		return fmt.Errorf("audit errored where salvage succeeded: %v", err)
	}
	for i := range arep.Chunks {
		if arep.Chunks[i].Recovered != recovered[i] {
			return fmt.Errorf("audit and salvage disagree on chunk %d", i)
		}
	}

	// Repair round-trip: when anything survived, the repaired container
	// must pass a normal strict decode, with survivors bit-identical to
	// the baseline.
	if rep.Recovered == 0 {
		return nil
	}
	fixed, rrep, err := sperr.Repair(m.Data)
	if err != nil {
		return fmt.Errorf("repair: %v", err)
	}
	rdata, rdims, err := sperr.Decompress(fixed)
	if err != nil {
		return fmt.Errorf("strict decode of repaired container: %v", err)
	}
	if rdims != dims {
		return fmt.Errorf("repaired dims %v, want %v", rdims, dims)
	}
	for _, c := range rrep.Chunks {
		if !(c.Recovered && intact[c.Index]) {
			continue
		}
		for z := 0; z < c.Dims.NZ; z++ {
			for y := 0; y < c.Dims.NY; y++ {
				for x := 0; x < c.Dims.NX; x++ {
					i := ((c.Origin[2]+z)*dims[1]+c.Origin[1]+y)*dims[0] + c.Origin[0] + x
					if math.Float64bits(rdata[i]) != math.Float64bits(baseline[i]) {
						return fmt.Errorf("repaired chunk %d not bit-identical at (%d,%d,%d)",
							c.Index, x, y, z)
					}
				}
			}
		}
	}
	return nil
}

// TestCampaignV1: container v1 is retired, and its fixture's mutants —
// truncations, single-bit flips and zeroed runs swept over the whole
// stream, since Campaign maps frames only in the generations that have an
// index — must be refused by every reader within the allocation cap.
// Repair, v1's one reader, either refuses a mutant as ErrCorrupt or
// upgrades it to a v2 container that strict-decodes. (A payload flip that
// still decodes is carried into that container: without checksums it
// cannot be told from data.)
func TestCampaignV1(t *testing.T) {
	stream := loadFixture(t, "golden_pwe_24x17x9.sperr")
	var muts []Mutant
	for c := 0; c < len(stream); c += 97 {
		muts = append(muts, Mutant{Name: fmt.Sprintf("truncate@%d", c), Data: bytes.Clone(stream[:c])})
	}
	for k, off := 0, 0; off < len(stream); k, off = k+1, off+13 {
		data := bytes.Clone(stream)
		data[off] ^= 1 << (k % 8)
		muts = append(muts, Mutant{Name: fmt.Sprintf("flip@%d&%02x", off, 1<<(k%8)), Data: data})
	}
	for off := 28; off+8 <= len(stream); off += 211 {
		data := bytes.Clone(stream)
		clear(data[off : off+8])
		muts = append(muts, Mutant{Name: fmt.Sprintf("zero@%d+8", off), Data: data})
	}
	t.Logf("%d v1 mutants", len(muts))
	upgraded := 0
	runMutants(t, muts, func(m Mutant) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refusals := map[string]error{}
		_, _, refusals["Decompress"] = sperr.Decompress(m.Data)
		_, _, _, refusals["DecompressSalvage"] = sperr.DecompressSalvage(m.Data)
		_, refusals["Audit"] = sperr.Audit(m.Data)
		if dec, err := sperr.NewDecoder(bytes.NewReader(m.Data)); err != nil {
			refusals["Decoder"] = err
		} else {
			_, _, refusals["Decoder"] = dec.DecodeAll()
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > allocCap {
			return fmt.Errorf("refusals allocated %d bytes (cap %d)", d, allocCap)
		}
		for name, err := range refusals {
			if !errors.Is(err, sperr.ErrCorrupt) {
				return fmt.Errorf("%s: %v, want ErrCorrupt", name, err)
			}
		}
		fixed, _, err := sperr.Repair(m.Data)
		if err != nil {
			if !errors.Is(err, sperr.ErrCorrupt) {
				return fmt.Errorf("repair: %v, want ErrCorrupt", err)
			}
			return nil
		}
		if info, err := sperr.Describe(fixed); err != nil || info.Version != 2 {
			return fmt.Errorf("repair produced %+v, err %v; want a v2 container", info, err)
		}
		if _, _, err := sperr.Decompress(fixed); err != nil {
			return fmt.Errorf("strict decode of the upgrade: %v", err)
		}
		upgraded++
		return nil
	})
	t.Logf("%d v1 mutants upgraded by Repair, the rest refused", upgraded)
	if upgraded == 0 {
		t.Fatal("Repair upgraded no v1 mutant; flips deep in a payload still decode")
	}
}

// TestCampaignDeterministic pins that two runs generate identical
// mutants — the property that makes a campaign failure reproducible.
func TestCampaignDeterministic(t *testing.T) {
	stream := loadFixture(t, "golden_pwe_24x17x9_v2.sperr")
	a, err := Campaign(stream)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("mutant %d differs between runs", i)
		}
	}
}

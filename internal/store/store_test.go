package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sperr"
	"sperr/internal/obs"
)

// testField builds a small deterministic smooth-plus-noise volume.
func testField(dims [3]int, seed int64) []float64 {
	nx, ny, nz := dims[0], dims[1], dims[2]
	data := make([]float64, nx*ny*nz)
	rng := uint64(seed)*2862933555777941757 + 3037000493
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				rng = rng*2862933555777941757 + 3037000493
				noise := float64(rng>>40) / (1 << 24)
				data[(z*ny+y)*nx+x] = math.Sin(0.2*float64(x))*math.Cos(0.15*float64(y)) +
					0.3*math.Sin(0.1*float64(z)) + 0.05*noise
			}
		}
	}
	return data
}

// makeContainer compresses a deterministic field into a container v2.
func makeContainer(t testing.TB, dims, chunkDims [3]int, tol float64, seed int64) []byte {
	t.Helper()
	stream, _, err := sperr.CompressPWE(testField(dims, seed), dims, tol,
		&sperr.Options{ChunkDims: chunkDims})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func openTestStore(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustClean(t *testing.T, s *Store) {
	t.Helper()
	rep, err := s.AuditDisk()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("audit not clean: orphans=%v missing=%v corrupt=%v drift=%v",
			rep.Orphans, rep.Missing, rep.Corrupt, rep.Drift)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t, Options{})
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 1)

	meta, created, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported created=false")
	}
	if meta.Dims != dims || meta.NumChunks != 3*3*2 || len(meta.Chunks) != meta.NumChunks {
		t.Fatalf("meta geometry wrong: %+v", meta)
	}
	if meta.Mode != "pwe" || meta.Tolerance != 1e-4 {
		t.Fatalf("meta params wrong: mode=%q tol=%g", meta.Mode, meta.Tolerance)
	}

	got, b, err := s.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != meta.ID || !bytes.Equal(b, c) {
		t.Fatal("Get returned different bytes or meta")
	}

	// Idempotent re-ingest: same address, no second copy.
	meta2, created, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	if created || meta2.ID != meta.ID {
		t.Fatalf("re-ingest: created=%v id match=%v", created, meta2.ID == meta.ID)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d volumes, want 1", s.Len())
	}
	mustClean(t, s)
}

func TestContentAddressSeparatesParams(t *testing.T) {
	s := openTestStore(t, Options{})
	dims := [3]int{16, 16, 8}
	a := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-3, 1)
	b := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-5, 1) // same data, different tol

	ma, _, err := s.Put(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := s.Put(b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.ID == mb.ID {
		t.Fatal("different compression params produced the same content address")
	}
}

// TestAddressesPinned: the content address folds in paramsTag, so any
// change to the tag's text moves the address of every stored volume. The
// v2 and v3 fixtures' addresses are pinned as the store has always named
// them; the retired v1 fixture has no address any more ("" below): it is
// refused, naming its upgrade.
func TestAddressesPinned(t *testing.T) {
	for name, want := range map[string]string{
		"golden_pwe_24x17x9.sperr":          "",
		"golden_pwe_24x17x9_v2.sperr":       "58879feef4f5337de3f72226239bef17c751466816b0058f16f2d842ef778e56",
		"golden_adaptive_48x32x32_v3.sperr": "c30a4e16c30add2ccab6bf217d29f3d8b93ae7b7be20a7c26e8b88750d1a59b2",
	} {
		c, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := AddressOf(c)
		if want == "" {
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "sperr repair") {
				t.Errorf("%s: AddressOf = %q, %v; want ErrCorrupt naming sperr repair", name, id, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id != want {
			t.Errorf("%s: address %s, want %s", name, id, want)
		}
	}
}

func TestPutRejectsCorrupt(t *testing.T) {
	s := openTestStore(t, Options{})
	c := makeContainer(t, [3]int{24, 17, 9}, [3]int{8, 8, 8}, 1e-4, 2)

	flip := append([]byte(nil), c...)
	flip[len(flip)/2] ^= 0x40 // inside a frame payload: CRC must catch it
	if _, _, err := s.Put(flip); err == nil {
		t.Fatal("Put accepted a payload-corrupted container")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted Put returned %v, want ErrCorrupt", err)
	}

	if _, _, err := s.Put(c[:len(c)/3]); err == nil {
		t.Fatal("Put accepted a truncated container")
	}
	if _, _, err := s.Put([]byte("not a container at all")); err == nil {
		t.Fatal("Put accepted garbage")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected ingests left %d volumes resident", s.Len())
	}
	mustClean(t, s)
}

func TestDeleteRemovesBlobAndManifest(t *testing.T) {
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	c := makeContainer(t, [3]int{16, 16, 8}, [3]int{8, 8, 8}, 1e-4, 3)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache so Delete also has slabs to invalidate.
	if _, _, err := s.Region(context.Background(), meta.ID, [3]int{0, 0, 0}, meta.Dims, 2); err != nil {
		t.Fatal(err)
	}
	if s.Cache().Len() == 0 {
		t.Fatal("region read cached nothing")
	}

	if err := s.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(meta.ID); err != ErrNotFound {
		t.Fatalf("Get after Delete returned %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(s.blobPath(meta.ID)); !os.IsNotExist(err) {
		t.Fatal("blob file survived Delete")
	}
	if got := s.Cache().Len(); got != 0 {
		t.Fatalf("%d cached slabs survived Delete", got)
	}
	if err := s.Delete(meta.ID); err != ErrNotFound {
		t.Fatalf("double Delete returned %v, want ErrNotFound", err)
	}
	mustClean(t, s)
}

// TestReopenRecoversManifest: a fresh Store over the same dir sees the
// same volumes and serves the same bytes.
func TestReopenRecoversManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := makeContainer(t, [3]int{16, 16, 8}, [3]int{8, 8, 8}, 1e-4, 4)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, b, err := s2.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) || got.NumChunks != meta.NumChunks {
		t.Fatal("reopened store does not match original")
	}
	mustClean(t, s2)
}

// TestBatchedFlushCoalesces: concurrent ingests all land durably and the
// store stays consistent — the batcher's group commit must not drop or
// double-apply ops.
func TestBatchedFlushCoalesces(t *testing.T) {
	s := openTestStore(t, Options{})
	const n = 16
	containers := make([][]byte, n)
	for i := range containers {
		containers[i] = makeContainer(t, [3]int{12, 11, 7}, [3]int{8, 8, 8}, 1e-4, int64(100+i))
	}
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := range containers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, err := s.Put(containers[i])
			if err == nil {
				ids[i] = m.ID
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Put %d: %v", i, err)
		}
	}
	if s.Len() != n {
		t.Fatalf("store holds %d volumes, want %d", s.Len(), n)
	}
	for i, id := range ids {
		if _, b, err := s.Get(id); err != nil || !bytes.Equal(b, containers[i]) {
			t.Fatalf("volume %d not durably resident: %v", i, err)
		}
	}
	mustClean(t, s)
}

// TestRegionMatchesDecompressRegion: the two-tier read path is a pure
// memoization — cached, partially cached, and uncached reads are all
// bit-identical to the library's region decode, and a repeated read does
// zero decode work.
func TestRegionMatchesDecompressRegion(t *testing.T) {
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 5)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}

	regions := []struct{ origin, rdims [3]int }{
		{[3]int{0, 0, 0}, dims},              // whole volume
		{[3]int{3, 2, 1}, [3]int{10, 9, 5}},  // interior crossing chunk seams
		{[3]int{16, 8, 0}, [3]int{8, 9, 8}},  // touching the ragged edge
		{[3]int{23, 16, 8}, [3]int{1, 1, 1}}, // single corner point
	}
	for ri, rg := range regions {
		want, err := sperr.DecompressRegion(c, rg.origin, rg.rdims)
		if err != nil {
			t.Fatal(err)
		}
		// First read: misses decode, result exact.
		got, st1, err := s.Region(context.Background(), meta.ID, rg.origin, rg.rdims, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !equalFloats(got, want) {
			t.Fatalf("region %d: first read differs from DecompressRegion", ri)
		}
		// Second read: fully cached, zero decodes, still exact.
		before := s.Decodes()
		got2, st2, err := s.Region(context.Background(), meta.ID, rg.origin, rg.rdims, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !equalFloats(got2, want) {
			t.Fatalf("region %d: cached read differs from DecompressRegion", ri)
		}
		if !st2.Cached() || st2.Decoded != 0 || s.Decodes() != before {
			t.Fatalf("region %d: repeat read decoded (stats1=%+v stats2=%+v)", ri, st1, st2)
		}
		if st2.Chunks != st1.Chunks || st2.Hits != st1.Chunks {
			t.Fatalf("region %d: hit accounting wrong: %+v", ri, st2)
		}
	}
	mustClean(t, s)
}

// readOne looks chunk ci of volume id up and reads it alone, returning
// its slab.
func readOne(t *testing.T, s *Store, id string, ci int) []float64 {
	t.Helper()
	l, err := s.Lookup(id, []int{ci})
	if err != nil {
		t.Fatal(err)
	}
	var slab []float64
	if err := l.Read(context.Background(), 1, func(got int, data []float64, err error) error {
		if got != ci {
			t.Fatalf("read handed chunk %d for a lookup of %d", got, ci)
		}
		slab = data
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return slab
}

// TestLookupSharesTheCachedSlab: the read step is Region's cache without
// the copy. A miss decodes through the same path (one decode, counted by
// the same registry counters, offered to the cache); a hit hands out the
// resident slab itself; both are the chunk's box of the library decode;
// and with the cache off every read decodes and still answers.
func TestLookupSharesTheCachedSlab(t *testing.T) {
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 5)
	for _, cacheSamples := range []int64{1 << 20, 0} {
		reg := obs.NewRegistry()
		hits := reg.Counter("sperrd_cache_hits_total")
		misses := reg.Counter("sperrd_cache_misses_total")
		decodes := reg.Counter("sperrd_store_chunk_decodes_total")
		s := openTestStore(t, Options{CacheSamples: cacheSamples, Registry: reg})
		meta, _, err := s.Put(c)
		if err != nil {
			t.Fatal(err)
		}
		for ci, g := range meta.Chunks {
			want, err := sperr.DecompressRegion(c, g.Origin, g.Dims)
			if err != nil {
				t.Fatal(err)
			}
			first, second := readOne(t, s, meta.ID, ci), readOne(t, s, meta.ID, ci)
			if !equalFloats(first, want) || !equalFloats(second, want) {
				t.Fatalf("cache %d: chunk %d differs from the library decode", cacheSamples, ci)
			}
			if shared := &first[0] == &second[0]; shared != (cacheSamples > 0) {
				t.Fatalf("cache %d: chunk %d: second read shares the first's slab = %v", cacheSamples, ci, shared)
			}
			viaRegion, _, err := s.Region(context.Background(), meta.ID, g.Origin, g.Dims, 1)
			if err != nil || !equalFloats(viaRegion, want) {
				t.Fatalf("cache %d: chunk %d: Region after the read step: %v", cacheSamples, ci, err)
			}
		}
		n := int64(len(meta.Chunks))
		wantHits, wantDecodes := 2*n, n // the second read and Region hit what the first decoded
		if cacheSamples == 0 {
			wantHits, wantDecodes = 0, 3*n
		}
		if hits.Value() != wantHits || misses.Value() != wantDecodes || decodes.Value() != wantDecodes || s.Decodes() != wantDecodes {
			t.Fatalf("cache %d: hits %d misses %d decodes %d (store %d), want %d/%d/%d", cacheSamples,
				hits.Value(), misses.Value(), decodes.Value(), s.Decodes(), wantHits, wantDecodes, wantDecodes)
		}
		for _, bad := range []int{len(meta.Chunks), -1} {
			if _, err := s.Lookup(meta.ID, []int{0, bad}); err == nil {
				t.Fatalf("chunk index %d accepted", bad)
			}
		}
		if hits.Value() != wantHits || misses.Value() != wantDecodes {
			t.Fatal("a refused lookup counted cache outcomes")
		}
		if _, err := s.Lookup("no-such-volume", []int{0}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unknown volume: %v", err)
		}
	}
}

// TestReadChunkErrorPolicy: a chunk whose frame is damaged on disk reaches
// the callback as that chunk's error, and the callback's answer is the
// policy. Returning nil skips the chunk and every other chunk is still
// delivered, decoded from the one blob read; returning the error stops
// the read with it, and nothing more is dispatched.
func TestReadChunkErrorPolicy(t *testing.T) {
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 6)
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sperr.Audit(c)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	f := rep.Chunks[bad]
	blob := append([]byte(nil), c...)
	blob[f.Offset+4+int64(f.Length)/2] ^= 0x40
	if err := os.WriteFile(s.blobPath(meta.ID), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	all := meta.Intersecting([3]int{}, dims)
	for _, workers := range []int{1, 3} {
		s.Cache().Purge()
		l, err := s.Lookup(meta.ID, all)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		var failed []int
		if err := l.Read(context.Background(), workers, func(ci int, slab []float64, err error) error {
			if seen[ci] {
				t.Fatalf("workers %d: chunk %d handed out twice", workers, ci)
			}
			seen[ci] = true
			if err != nil {
				failed = append(failed, ci)
				return nil
			}
			g := meta.Chunks[ci]
			want, werr := sperr.DecompressRegion(c, g.Origin, g.Dims)
			if werr != nil || !equalFloats(slab, want) {
				t.Fatalf("workers %d: chunk %d differs from the library decode", workers, ci)
			}
			return nil
		}); err != nil {
			t.Fatalf("workers %d: a skipping read failed: %v", workers, err)
		}
		if len(seen) != len(all) || len(failed) != 1 || failed[0] != bad {
			t.Fatalf("workers %d: %d of %d chunks handed out, failed %v, want only %d", workers, len(seen), len(all), failed, bad)
		}
	}

	// Stopping: at one worker the chunks before the damaged one are
	// decoded, and nothing after it.
	s.Cache().Purge()
	before := s.Decodes()
	l, err := s.Lookup(meta.ID, all)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = l.Read(context.Background(), 1, func(ci int, slab []float64, err error) error {
		calls++
		return err
	})
	if err == nil || calls != bad+1 || s.Decodes()-before != bad {
		t.Fatalf("stopping read: err %v after %d calls and %d decodes, want an error after %d and %d", err, calls, s.Decodes()-before, bad+1, bad)
	}
}

// TestRegionStopsAfterDecodeError: a frame damaged on disk after ingest
// fails the read, and once it has failed Region dispatches no further
// decodes. At one worker the damaged first missing chunk is decoded
// before any other, so nothing decodes at all.
func TestRegionStopsAfterDecodeError(t *testing.T) {
	dims := [3]int{24, 17, 9}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 6)
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sperr.Audit(c)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 is the first missing chunk of a whole-volume read from a
	// cold cache; its payload follows the frame's u32 length prefix.
	f := rep.Chunks[0]
	blob := append([]byte(nil), c...)
	blob[f.Offset+4+int64(f.Length)/2] ^= 0x40
	if err := os.WriteFile(s.blobPath(meta.ID), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Region(context.Background(), meta.ID, [3]int{}, dims, 1); err == nil {
		t.Fatal("region over a damaged frame succeeded")
	}
	if n := s.Decodes(); n != 0 {
		t.Fatalf("%d chunks decoded after the first decode failed", n)
	}
}

// equalFloats compares bit patterns (NaN-safe, sign-of-zero-exact).
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPlanRegion: the admission probe reports misses before a read and
// full residency after, and probing counts nothing.
func TestPlanRegion(t *testing.T) {
	s := openTestStore(t, Options{CacheSamples: 1 << 20})
	dims := [3]int{16, 16, 8}
	c := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, 6)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	all := meta.Intersecting([3]int{}, dims)
	plan := s.PlanRegion(meta, all)
	if plan.Chunks != 4 || plan.MissingChunks != 4 || plan.MaxChunkSamples != 512 {
		t.Fatalf("cold plan wrong: %+v", plan)
	}
	if s.Cache().Hits()+s.Cache().Misses() != 0 {
		t.Fatal("planning counted cache outcomes")
	}
	if _, _, err := s.Region(context.Background(), meta.ID, [3]int{0, 0, 0}, dims, 0); err != nil {
		t.Fatal(err)
	}
	plan = s.PlanRegion(meta, all)
	if plan.MissingChunks != 0 || plan.MissingSamples != 0 {
		t.Fatalf("warm plan wrong: %+v", plan)
	}
	// Out-of-bounds and unknown-volume reads are refused.
	if _, _, err := s.Region(context.Background(), meta.ID, [3]int{8, 0, 0}, dims, 0); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, _, err := s.Region(context.Background(), "nope", [3]int{0, 0, 0}, [3]int{1, 1, 1}, 0); err != ErrNotFound {
		t.Fatalf("unknown id read returned %v", err)
	}
}

// TestAuditDetectsDamage: the disk audit flags orphans, missing blobs,
// and content drift.
func TestAuditDetectsDamage(t *testing.T) {
	s := openTestStore(t, Options{})
	c := makeContainer(t, [3]int{12, 11, 7}, [3]int{8, 8, 8}, 1e-4, 7)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, s)

	// Orphan: a stray blob no manifest entry references.
	stray := filepath.Join(s.Dir(), volumesDir, "deadbeef"+blobExt)
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.AuditDisk()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != "deadbeef" {
		t.Fatalf("orphan not flagged: %+v", rep)
	}
	os.Remove(stray)

	// Corrupt: blob content no longer matches the manifest's SHA-256.
	if err := os.WriteFile(s.blobPath(meta.ID), append([]byte(nil), c[:len(c)-1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = s.AuditDisk()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 {
		t.Fatalf("tampered blob not flagged: %+v", rep)
	}

	// Missing: blob gone entirely.
	os.Remove(s.blobPath(meta.ID))
	rep, err = s.AuditDisk()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 {
		t.Fatalf("missing blob not flagged: %+v", rep)
	}
}

func TestClosedStoreRefusesMutation(t *testing.T) {
	s := openTestStore(t, Options{})
	c := makeContainer(t, [3]int{12, 11, 7}, [3]int{8, 8, 8}, 1e-4, 8)
	meta, _, err := s.Put(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(c); err != ErrClosed {
		t.Fatalf("Put after Close returned %v, want ErrClosed", err)
	}
	if err := s.Delete(meta.ID); err != ErrClosed {
		t.Fatalf("Delete after Close returned %v, want ErrClosed", err)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sperr"
	"sperr/internal/rawio"
	"sperr/internal/store"
)

// goldenFixtures are the pinned containers of the same 24x17x9 volume —
// the cache-equivalence tier runs over both. "v1" is the retired
// container v1 fixture, served as the v2 container `sperr repair`
// upgrades it to (see loadGolden).
var goldenFixtures = []struct{ name, path string }{
	{"v1", v1FixturePath},
	{"v2", "../../testdata/golden_pwe_24x17x9_v2.sperr"},
}

// v1FixturePath is the retired container v1 fixture, which every read
// surface must refuse.
const v1FixturePath = "../../testdata/golden_pwe_24x17x9.sperr"

// loadGolden reads a golden fixture, upgrading the retired v1 one
// through Repair: no endpoint serves v1 bytes any more.
func loadGolden(t *testing.T, path string) []byte {
	t.Helper()
	c := readFixture(t, path)
	if path != v1FixturePath {
		return c
	}
	up, _, err := sperr.Repair(c)
	if err != nil {
		t.Fatalf("upgrade v1 fixture: %v", err)
	}
	return up
}

// goldenSamples is the fixture volume's total sample count; the 16^3
// tiling splits it into 4 chunks (largest 16x16x9 = 2304 samples).
const goldenSamples = 24 * 17 * 9 // 3672

func readFixture(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newStoreServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	return newTestServer(t, cfg)
}

// do issues a method/URL/body request under the standard test deadline.
func do(t testing.TB, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// ingest PUTs a container and returns its content address.
func ingest(t testing.TB, ts *httptest.Server, container []byte, wantCode int) string {
	t.Helper()
	res, body := do(t, "PUT", ts.URL+"/v1/volumes", container)
	if res.StatusCode != wantCode {
		t.Fatalf("ingest status %d (%s), want %d", res.StatusCode, body, wantCode)
	}
	id := res.Header.Get("X-Sperr-Volume-Id")
	if id == "" {
		t.Fatal("ingest response missing X-Sperr-Volume-Id")
	}
	var meta store.Meta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatalf("ingest body not a manifest entry: %v", err)
	}
	if meta.ID != id {
		t.Fatalf("body id %s != header id %s", meta.ID, id)
	}
	return id
}

func cachedRegionURL(ts *httptest.Server, id string, origin, dims [3]int) string {
	return fmt.Sprintf("%s/v1/volumes/%s/region?region=%d,%d,%d,%d,%d,%d", ts.URL, id,
		origin[0], origin[1], origin[2], dims[0], dims[1], dims[2])
}

// uncachedRegion is the stateless baseline: POST /v1/region with the
// container body, the path that always decodes.
func uncachedRegion(t *testing.T, ts *httptest.Server, container []byte, origin, dims [3]int) []byte {
	t.Helper()
	url := fmt.Sprintf("%s/v1/region?region=%d,%d,%d,%d,%d,%d", ts.URL,
		origin[0], origin[1], origin[2], dims[0], dims[1], dims[2])
	res, body := postRaw(t, url, container)
	if res.StatusCode != 200 {
		t.Fatalf("uncached region status %d: %s", res.StatusCode, body)
	}
	return body
}

// TestCacheEquivalenceGolden is the acceptance tier: for both golden
// fixtures, the cached region path returns bytes identical to the
// uncached decode, the repeat request is a full cache hit, and the
// decode-stage instrumentation counter stays flat across the hit —
// zero chunk decodes on the hit path.
func TestCacheEquivalenceGolden(t *testing.T) {
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			s, ts := newStoreServer(t, Config{})
			container := loadGolden(t, fx.path)
			id := ingest(t, ts, container, http.StatusCreated)

			regions := []struct{ origin, dims [3]int }{
				{[3]int{0, 0, 0}, [3]int{24, 17, 9}},
				{[3]int{5, 4, 3}, [3]int{12, 8, 4}},
			}
			decodeCtr := s.Registry().Counter("sperrd_store_chunk_decodes_total")
			for _, rg := range regions {
				want := uncachedRegion(t, ts, container, rg.origin, rg.dims)

				res, got := do(t, "GET", cachedRegionURL(ts, id, rg.origin, rg.dims), nil)
				if res.StatusCode != 200 {
					t.Fatalf("cached region status %d: %s", res.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("first read differs from uncached decode (%d vs %d bytes)",
						len(got), len(want))
				}

				// The acceptance pin: the repeat request must not decode.
				before := decodeCtr.Value()
				res, got = do(t, "GET", cachedRegionURL(ts, id, rg.origin, rg.dims), nil)
				if res.StatusCode != 200 {
					t.Fatalf("repeat region status %d", res.StatusCode)
				}
				if hdr := res.Header.Get("X-Sperr-Cache"); hdr != "hit" {
					t.Fatalf("repeat read X-Sperr-Cache=%q, want hit", hdr)
				}
				if after := decodeCtr.Value(); after != before {
					t.Fatalf("decode counter moved %d -> %d across a cache hit", before, after)
				}
				if s.Store().Decodes() != before {
					t.Fatalf("store decode count %d != metric %d", s.Store().Decodes(), before)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("cache hit bytes differ from uncached decode")
				}
			}

			// Library-level cross-check: the served floats equal
			// sperr.DecompressRegion exactly.
			rg := regions[1]
			want, err := sperr.DecompressRegion(container, rg.origin, rg.dims)
			if err != nil {
				t.Fatal(err)
			}
			_, raw := do(t, "GET", cachedRegionURL(ts, id, rg.origin, rg.dims), nil)
			got, err := rawio.DecodeFloats(raw, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sample %d: served %g, library %g", i, got[i], want[i])
				}
			}

			// The streamed contract at both widths: every response is the
			// library decode (narrowed for f32=1) with an ok trailer, and the
			// read's own cache pass names its outcome. From a purged cache:
			// one chunk misses, the whole volume is then partial, and an
			// interior box hits. A repeat at the other width always hits.
			s.Store().Cache().Purge()
			for _, step := range []struct {
				origin, dims [3]int
				cache        string
			}{
				{[3]int{0, 0, 0}, [3]int{8, 8, 8}, "miss"},
				{[3]int{0, 0, 0}, [3]int{24, 17, 9}, "partial"},
				{[3]int{5, 4, 3}, [3]int{12, 8, 4}, "hit"},
			} {
				lib, err := sperr.DecompressRegion(container, step.origin, step.dims)
				if err != nil {
					t.Fatal(err)
				}
				cache := step.cache
				for _, width := range []int{4, 8} {
					want, _ := rawio.EncodeFloats(lib, width)
					url := cachedRegionURL(ts, id, step.origin, step.dims)
					if width == 4 {
						url += "&f32=1"
					}
					res, got := do(t, "GET", url, nil)
					if res.StatusCode != 200 || res.Trailer.Get("X-Sperr-Status") != "ok" || !bytes.Equal(got, want) {
						t.Fatalf("%v+%v width %d: status %d, trailer %q, bytes equal %v", step.origin, step.dims, width,
							res.StatusCode, res.Trailer.Get("X-Sperr-Status"), bytes.Equal(got, want))
					}
					if hdr := res.Header.Get("X-Sperr-Cache"); hdr != cache {
						t.Fatalf("%v+%v width %d: X-Sperr-Cache=%q, want %q", step.origin, step.dims, width, hdr, cache)
					}
					cache = "hit"
				}
			}

			// The hits and the resident slabs show on /metrics.
			for _, series := range []string{"sperrd_cache_hits_total", "sperrd_cache_resident_samples"} {
				if v := scrapeMetric(t, ts.URL, series); v <= 0 {
					t.Fatalf("%s is %g after cache hits", series, v)
				}
			}
		})
	}
}

// TestCacheEquivalenceAfterEviction: with a cache that can hold one
// golden volume's chunks but not two, alternating whole-volume reads
// force evictions and re-decodes — and every re-decoded response must
// still be byte-identical to the uncached baseline.
func TestCacheEquivalenceAfterEviction(t *testing.T) {
	s, ts := newStoreServer(t, Config{
		CacheSamples: goldenSamples + 300, // one volume fits, two do not
	})
	origin, dims := [3]int{0, 0, 0}, [3]int{24, 17, 9}

	type vol struct {
		id   string
		want []byte
	}
	vols := make([]vol, len(goldenFixtures))
	for i, fx := range goldenFixtures {
		c := loadGolden(t, fx.path)
		vols[i] = vol{
			id:   ingest(t, ts, c, http.StatusCreated),
			want: uncachedRegion(t, ts, c, origin, dims),
		}
	}

	for round := 0; round < 3; round++ {
		for i, v := range vols {
			res, got := do(t, "GET", cachedRegionURL(ts, v.id, origin, dims), nil)
			if res.StatusCode != 200 {
				t.Fatalf("round %d vol %d: status %d", round, i, res.StatusCode)
			}
			if !bytes.Equal(got, v.want) {
				t.Fatalf("round %d vol %d: bytes differ after eviction-forced re-decode", round, i)
			}
		}
	}
	if s.Store().Cache().Evictions() == 0 {
		t.Fatal("no evictions happened — cache cap was not binding")
	}
	// Round 0 decodes all 8 chunks (4 per volume); the later rounds must
	// re-decode evicted chunks, and residency never exceeds the cap.
	if got := s.Store().Decodes(); got <= 8 {
		t.Fatalf("decode count %d — evictions never forced a re-decode", got)
	}
	if res := s.Store().Cache().PeakResident(); res > goldenSamples+300 {
		t.Fatalf("peak residency %d exceeds cap %d", res, goldenSamples+300)
	}
}

// TestCacheDeclinedCounter: sperrd_cache_declined_total counts the decoded
// slabs the cache turned away. A cache of four chunks that has seen four
// chunks read over and over declines the one-off chunks of a later
// whole-volume pass; a cache larger than the volume never fills and never
// declines. Every read is still served.
func TestCacheDeclinedCounter(t *testing.T) {
	dims, chunk := [3]int{32, 32, 8}, [3]int{8, 8, 8} // 16 chunks of 512
	container, _, err := sperr.CompressPWE(field(dims[0], dims[1], dims[2], 8), dims, 1e-3,
		&sperr.Options{ChunkDims: chunk})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cache    int64
		declines bool
	}{
		{4 * 512, true},
		{2 * 32 * 32 * 8, false},
	} {
		s, ts := newStoreServer(t, Config{CacheSamples: tc.cache})
		id := ingest(t, ts, container, http.StatusCreated)
		read := func(origin, rdims [3]int) {
			if res, body := do(t, "GET", cachedRegionURL(ts, id, origin, rdims), nil); res.StatusCode != 200 {
				t.Fatalf("cache %d: region status %d: %s", tc.cache, res.StatusCode, body)
			}
		}
		for round := 0; round < 5; round++ {
			for x := 0; x < 32; x += 8 {
				read([3]int{x, 0, 0}, chunk)
			}
		}
		read([3]int{}, dims)
		got := s.Registry().Counter("sperrd_cache_declined_total").Value()
		if (got > 0) != tc.declines || got != s.Store().Cache().Declined() {
			t.Fatalf("cache %d: sperrd_cache_declined_total = %d (cache counted %d), want declines %v",
				tc.cache, got, s.Store().Cache().Declined(), tc.declines)
		}
	}
}

// TestIngestIdempotentAndMetrics: re-PUT of the same container returns
// 200 (not 201) with the same address, and the store metrics reflect one
// resident volume and two ingest observations.
func TestIngestIdempotentAndMetrics(t *testing.T) {
	s, ts := newStoreServer(t, Config{})
	container := readFixture(t, goldenFixtures[1].path)

	id1 := ingest(t, ts, container, http.StatusCreated)
	id2 := ingest(t, ts, container, http.StatusOK)
	if id1 != id2 {
		t.Fatalf("idempotent re-ingest changed the address: %s vs %s", id1, id2)
	}
	if got := s.Registry().Gauge("sperrd_store_volumes").Value(); got != 1 {
		t.Fatalf("sperrd_store_volumes=%d, want 1", got)
	}
	if got := s.Registry().Counter("sperrd_store_ingests_total").Value(); got != 2 {
		t.Fatalf("sperrd_store_ingests_total=%d, want 2", got)
	}

	// The manifest endpoint serves geometry without touching data.
	res, body := do(t, "GET", ts.URL+"/v1/volumes/"+id1, nil)
	if res.StatusCode != 200 {
		t.Fatalf("volume meta status %d", res.StatusCode)
	}
	var meta store.Meta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Dims != [3]int{24, 17, 9} || meta.NumChunks != 4 || len(meta.Chunks) != 4 {
		t.Fatalf("meta geometry drifted: %+v", meta)
	}
}

// TestIngestRejectsCorrupt: a flipped payload byte is refused with 422
// and leaves no trace in the store.
func TestIngestRejectsCorrupt(t *testing.T) {
	s, ts := newStoreServer(t, Config{})
	container := readFixture(t, goldenFixtures[1].path)
	bad := append([]byte(nil), container...)
	bad[len(bad)/2] ^= 0x20

	res, body := do(t, "PUT", ts.URL+"/v1/volumes", bad)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt ingest status %d (%s), want 422", res.StatusCode, body)
	}
	if got := s.Registry().Counter("sperrd_store_ingest_rejected_total").Value(); got != 1 {
		t.Fatalf("sperrd_store_ingest_rejected_total=%d, want 1", got)
	}
	if s.Store().Len() != 0 {
		t.Fatal("rejected ingest left a resident volume")
	}
}

// TestIngestRefusesSPECKAC: a container whose index footer names the
// retired arithmetic-coded SPECK layer (as every SPECK-AC container did)
// is refused with 422, naming SPECK-AC, even with every checksum intact.
func TestIngestRefusesSPECKAC(t *testing.T) {
	s, ts := newStoreServer(t, Config{})
	ac := readFixture(t, goldenFixtures[1].path)
	end := len(ac) - 20 // index tail: indexCRC u32 | indexOffset u64 | magic
	ac[end-32+1] = 1    // the aggregates' layer byte
	index := ac[binary.LittleEndian.Uint64(ac[end+4:]):end]
	binary.LittleEndian.PutUint32(ac[end:], crc32.Checksum(index, crc32.MakeTable(crc32.Castagnoli)))

	res, body := do(t, "PUT", ts.URL+"/v1/volumes", ac)
	if res.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "SPECK-AC") {
		t.Fatalf("SPECK-AC ingest: %d (%s), want 422 naming SPECK-AC", res.StatusCode, body)
	}
	if s.Store().Len() != 0 {
		t.Fatal("refused ingest left a resident volume")
	}
}

// TestIngestRefusesRetiredV1: container v1 is refused on every endpoint
// that takes a container body — ingest with 422 naming the upgrade
// command, the stateless decode paths with a 4xx — and never served.
func TestIngestRefusesRetiredV1(t *testing.T) {
	s, ts := newStoreServer(t, Config{})
	v1 := readFixture(t, v1FixturePath)
	res, body := do(t, "PUT", ts.URL+"/v1/volumes", v1)
	if res.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "sperr repair") {
		t.Fatalf("v1 ingest: %d (%s), want 422 naming sperr repair", res.StatusCode, body)
	}
	if s.Store().Len() != 0 {
		t.Fatal("refused ingest left a resident volume")
	}
	for _, path := range []string{"/v1/decompress", "/v1/describe", "/v1/region?region=0,0,0,4,4,4"} {
		res, body := postRaw(t, ts.URL+path, v1)
		if res.StatusCode < 400 || res.StatusCode >= 500 {
			t.Errorf("POST %s with v1: %d (%s), want 4xx", path, res.StatusCode, body)
		}
	}
}

// TestVolumeLifecycleAndErrors: delete frees the volume, and every
// endpoint 404s on unknown or deleted addresses; a server without
// -store-dir refuses the family with 503.
func TestVolumeLifecycleAndErrors(t *testing.T) {
	_, ts := newStoreServer(t, Config{})
	container := loadGolden(t, goldenFixtures[0].path)
	id := ingest(t, ts, container, http.StatusCreated)

	if res, _ := do(t, "DELETE", ts.URL+"/v1/volumes/"+id, nil); res.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", res.StatusCode)
	}
	for _, u := range []struct{ method, url string }{
		{"GET", ts.URL + "/v1/volumes/" + id},
		{"GET", cachedRegionURL(ts, id, [3]int{0, 0, 0}, [3]int{1, 1, 1})},
		{"DELETE", ts.URL + "/v1/volumes/" + id},
	} {
		if res, _ := do(t, u.method, u.url, nil); res.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s after delete: status %d, want 404", u.method, u.url, res.StatusCode)
		}
	}

	// Bad region specs are 400, not 404 or 500.
	id = ingest(t, ts, container, http.StatusCreated)
	for _, spec := range []string{"region=0,0,0,99,99,99", "region=1,2,3", "region=0,0,0,0,0,0"} {
		res, _ := do(t, "GET", ts.URL+"/v1/volumes/"+id+"/region?"+spec, nil)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", spec, res.StatusCode)
		}
	}

	// Store disabled: the whole family answers 503.
	_, tsOff := newTestServer(t, Config{})
	res, _ := do(t, "PUT", tsOff.URL+"/v1/volumes", container)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled-store ingest status %d, want 503", res.StatusCode)
	}
}

// TestCacheShedsUnderPressure: with the cache holding most of the shared
// budget, an admitted compress that needs the room must reclaim it —
// cold slabs are shed, the request succeeds, and residency plus in-flight
// never exceed the budget.
func TestCacheShedsUnderPressure(t *testing.T) {
	dims := [3]int{32, 32, 16}
	chunk := [3]int{16, 16, 16}
	workers := 2
	cost := engineCost(dims, chunk, workers)
	s, ts := newStoreServer(t, Config{
		BudgetSamples: cost, // one compress fills the whole ceiling
		CacheSamples:  cost,
		QueueWait:     5 * time.Second,
		Workers:       workers,
		ChunkDims:     chunk,
	})

	// Warm the cache: the golden volume's slab now occupies budget.
	container := readFixture(t, goldenFixtures[1].path)
	id := ingest(t, ts, container, http.StatusCreated)
	if res, _ := do(t, "GET", cachedRegionURL(ts, id, [3]int{0, 0, 0}, [3]int{24, 17, 9}), nil); res.StatusCode != 200 {
		t.Fatalf("warmup status %d", res.StatusCode)
	}
	if s.Store().Cache().Resident() == 0 {
		t.Fatal("warmup cached nothing")
	}

	// A full-budget compress cannot fit next to the cache — the admission
	// reclaimer must shed the slab rather than time the request out.
	data := field(dims[0], dims[1], dims[2], 21)
	raw, _ := rawio.EncodeFloats(data, 8)
	res, body := postRaw(t, compressURL(ts.URL, dims), raw)
	if res.StatusCode != 200 {
		t.Fatalf("pressured compress status %d (%s): cache did not yield", res.StatusCode, body)
	}
	if s.Store().Cache().Evictions() == 0 {
		t.Fatal("compress succeeded without shedding — budget accounting is off")
	}
	if p, c := s.Admission().Peak(), s.Admission().Capacity(); p > c {
		t.Fatalf("admission peak %d exceeded capacity %d", p, c)
	}

	// The region path still works after the shed (it just re-decodes).
	want := uncachedRegion(t, ts, container, [3]int{0, 0, 0}, [3]int{24, 17, 9})
	res, got := do(t, "GET", cachedRegionURL(ts, id, [3]int{0, 0, 0}, [3]int{24, 17, 9}), nil)
	if res.StatusCode != 200 || !bytes.Equal(got, want) {
		t.Fatal("post-shed region read wrong")
	}
}

// hotStore boots one node whose cache holds twice an edge³ volume in
// chunk³ chunks, ingests it and reads it whole once, so every chunk is
// resident. The returned function reads one box³ region, which must be a
// cache hit, and returns the body's length.
func hotStore(tb testing.TB, edge, chunk, box int) func(origin [3]int) int64 {
	tb.Helper()
	_, ts := newStoreServer(tb, Config{CacheSamples: int64(2 * edge * edge * edge)})
	id := ingest(tb, ts, hotContainer(tb, edge, chunk), http.StatusCreated)
	if n := hotRead(tb, ts.URL, id, [3]int{}, [3]int{edge, edge, edge}, "miss"); n != int64(8*edge*edge*edge) {
		tb.Fatalf("warming read returned %d bytes, want %d", n, 8*edge*edge*edge)
	}
	return func(origin [3]int) int64 {
		return hotRead(tb, ts.URL, id, origin, [3]int{box, box, box}, "hit")
	}
}

// BenchmarkStoreRegionHot is the serve_hot read phase without the
// benchmark harness around it: one node, 48³ boxes of a 128³ volume in 32³
// chunks, a cache of twice the volume, every read a hit. B/op is its
// allocation guard, about 1% of one response.
func BenchmarkStoreRegionHot(b *testing.B) {
	const edge, chunk, box = 128, 32, 48
	read := hotStore(b, edge, chunk, box)
	b.SetBytes(8 * box * box * box)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(hotOrigin(i, edge, box))
	}
}

// TestStoreHotReadAllocBudget is TestClusterHotReadAllocBudget's
// single-node twin: a hot read streams its slabs into recycled response
// bands, so it may allocate a tenth of the response at most (it reads
// about 0.01×). A fresh band per request costs one response, and cutting
// the region into a []float64 and then encoding it into a []byte cost
// twice that. Everything in the process counts, this test's HTTP client
// included. Under -race, whose runtime drops pooled buffers, the pre-pool
// budget of 1.25× applies.
func TestStoreHotReadAllocBudget(t *testing.T) {
	const edge, chunk, box, reads = 64, 32, 48, 24
	drainBandPool() // bands of other shapes, left by earlier tests, would be drawn and dropped
	read := hotStore(t, edge, chunk, box)
	for i := 0; i < reads; i++ { // fill connection and buffer pools, on every P
		read(hotOrigin(i, edge, box))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var body int64
	for i := 0; i < reads; i++ {
		body += read(hotOrigin(i, edge, box))
	}
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d hot reads: %d bytes allocated for %d response bytes (%.2fx)", reads, allocated, body, float64(allocated)/float64(body))
	budget, share := body/10, "0.1x"
	if raceEnabled {
		budget, share = body*5/4, "1.25x"
	}
	if allocated > budget {
		t.Fatalf("hot single-node reads allocated %d bytes for %d response bytes: more than %s", allocated, body, share)
	}
}

// TestStreamedRegionDamagedFrame: a frame damaged on disk after ingest
// fails a streamed read whose response is larger than the stream buffer.
// Depending on whether a band went out before the damaged chunk was
// reached, the answer is a 400 carrying no samples or a 200 whose trailer
// is an error and whose body is short — never an ok trailer, never the
// whole body.
func TestStreamedRegionDamagedFrame(t *testing.T) {
	const edge, chunk = 64, 32 // two z-bands of 1 MiB each
	container := hotContainer(t, edge, chunk)
	rep, err := sperr.Audit(container)
	if err != nil {
		t.Fatal(err)
	}
	full := 8 * edge * edge * edge
	for _, bad := range []int{0, len(rep.Chunks) - 1} {
		for _, workers := range []int{1, 2} {
			s, ts := newStoreServer(t, Config{})
			id := ingest(t, ts, container, http.StatusCreated)
			f := rep.Chunks[bad]
			blob := append([]byte(nil), container...)
			blob[f.Offset+4+int64(f.Length)/2] ^= 0x40
			if err := os.WriteFile(filepath.Join(s.Store().Dir(), "volumes", id+".sperr"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			res, body := do(t, "GET", cachedRegionURL(ts, id, [3]int{}, [3]int{edge, edge, edge})+fmt.Sprintf("&workers=%d", workers), nil)
			trailer := res.Trailer.Get("X-Sperr-Status")
			t.Logf("chunk %d damaged, workers %d: status %d, trailer %q, %d body bytes", bad, workers, res.StatusCode, trailer, len(body))
			switch {
			case res.StatusCode == http.StatusBadRequest && len(body) < 8*chunk:
			case res.StatusCode == http.StatusOK && strings.HasPrefix(trailer, "error:") && len(body) < full:
			default:
				t.Fatalf("chunk %d damaged, workers %d: status %d, trailer %q, %d of %d body bytes",
					bad, workers, res.StatusCode, trailer, len(body), full)
			}
		}
	}
}

// TestRegionBoxOverflowRefused: a region whose origin plus extent wraps
// int used to pass every bounds check — panicking in makeslice, or
// answering 200 with a fabricated sample. Every region path refuses it:
// single-node, stateless and cluster requests answer 400, and the library
// returns an error.
func TestRegionBoxOverflowRefused(t *testing.T) {
	const big = "9223372036854775807"
	specs := []string{
		"1,0,0," + big + ",1,1", "0,1,0,1," + big + ",1", "0,0,1,1,1," + big,
		big + ",0,0,1,1,1", "0," + big + ",0,1,1,1", "0,0," + big + ",1,1,1",
	}
	container := readFixture(t, goldenFixtures[1].path)
	_, ts := newStoreServer(t, Config{})
	id := ingest(t, ts, container, http.StatusCreated)
	nodes := newClusterNodes(t, 2, nil)
	cid := ingest(t, nodes[0].ts, container, http.StatusCreated)
	for _, spec := range specs {
		origin, dims, err := parseRegionSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := sperr.DecompressRegion(container, origin, dims); err == nil {
			t.Errorf("%s: DecompressRegion accepted the box", spec)
		}
		for name, req := range map[string]func() *http.Response{
			"single-node": func() *http.Response {
				res, _ := do(t, "GET", ts.URL+"/v1/volumes/"+id+"/region?region="+spec, nil)
				return res
			},
			"stateless": func() *http.Response { res, _ := postRaw(t, ts.URL+"/v1/region?region="+spec, container); return res },
			"cluster":   func() *http.Response { res, _ := getClusterRegion(t, nodes[1], cid, spec, ""); return res },
		} {
			if res := req(); res.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", name, spec, res.StatusCode)
			}
		}
	}
}

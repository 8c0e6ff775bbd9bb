package server

// The one-pass cluster read path end to end. First the hot read — every
// chunk resident in its primary owner's decoded cache, so a read is ring
// lookup, peer fetch, wire framing and band assembly and nothing else —
// as a kernel benchmark and as an allocation budget; then what the path
// must survive: a peer dying inside a frame, and the cache churning under
// the slabs it has handed out.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sperr"
	"sperr/internal/rawio"
)

// hotCluster boots three peers with two replicas per chunk, ingests an
// edge³ volume in chunk³ chunks through node a, and reads the whole volume
// once so that every chunk is decoded and cached on its primary owner.
// The returned function reads one box³ region through a coordinator and
// returns the body's length; every read must be a 200 with an ok trailer.
func hotCluster(tb testing.TB, edge, chunk, box int) (nodes []*clusterNode, read func(node *clusterNode, origin [3]int) int64) {
	tb.Helper()
	container := hotContainer(tb, edge, chunk)
	nodes = newClusterNodes(tb, 3, func(_ int, cfg *Config) {
		cfg.Replicas = 2
		cfg.CacheSamples = int64(2 * edge * edge * edge)
		cfg.ScrubInterval = -1
	})
	id := ingest(tb, nodes[0].ts, container, http.StatusCreated)
	if n := hotRead(tb, nodes[0].url, id, [3]int{}, [3]int{edge, edge, edge}, ""); n != int64(8*edge*edge*edge) {
		tb.Fatalf("warming read returned %d bytes, want %d", n, 8*edge*edge*edge)
	}
	return nodes, func(node *clusterNode, origin [3]int) int64 {
		return hotRead(tb, node.url, id, origin, [3]int{box, box, box}, "")
	}
}

// hotContainer compresses a smooth edge³ field in chunk³ chunks.
func hotContainer(tb testing.TB, edge, chunk int) []byte {
	tb.Helper()
	field := make([]float64, edge*edge*edge)
	for i := range field {
		x, y, z := i%edge, (i/edge)%edge, i/(edge*edge)
		field[i] = math.Sin(0.11*float64(x))*math.Cos(0.07*float64(y)) + 0.5*math.Sin(0.05*float64(z))
	}
	container, _, err := sperr.CompressPWE(field, [3]int{edge, edge, edge}, 1e-2, &sperr.Options{ChunkDims: [3]int{chunk, chunk, chunk}})
	if err != nil {
		tb.Fatal(err)
	}
	return container
}

// hotRead reads the box rd at origin of volume id through the node at
// base and returns the body's length. The read must be a 200 with an ok
// trailer and, unless cache is "", that X-Sperr-Cache outcome.
func hotRead(tb testing.TB, base, id string, origin, rd [3]int, cache string) int64 {
	url := fmt.Sprintf("%s/v1/volumes/%s/region?region=%d,%d,%d,%d,%d,%d", base, id,
		origin[0], origin[1], origin[2], rd[0], rd[1], rd[2])
	res, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" ||
		(cache != "" && res.Header.Get("X-Sperr-Cache") != cache) {
		tb.Fatalf("region read: status %d, trailer %q, cache %q, err %v", res.StatusCode,
			res.Trailer.Get("X-Sperr-Status"), res.Header.Get("X-Sperr-Cache"), err)
	}
	return n
}

// hotOrigin is the i-th box origin of a fixed walk through the volume that
// straddles chunk boundaries differently on every step.
func hotOrigin(i, edge, box int) [3]int {
	span := edge - box + 1
	return [3]int{(i * 7) % span, (i * 13) % span, (i * 29) % span}
}

// BenchmarkClusterRegionHot is the cluster_r2 read phase without the
// benchmark harness around it: 48³ boxes of a 128³ volume in 32³ chunks,
// coordinators taken round-robin, caches warm.
func BenchmarkClusterRegionHot(b *testing.B) {
	const edge, chunk, box = 128, 32, 48
	nodes, read := hotCluster(b, edge, chunk, box)
	b.SetBytes(8 * box * box * box)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(nodes[i%len(nodes)], hotOrigin(i, edge, box))
	}
}

// TestClusterHotReadAllocBudget pins the one-pass data path by its
// allocation bill: a hot cluster read writes its samples into recycled band
// buffers, so it may allocate a quarter of the response at most (it reads
// about 0.03×). A read that draws a fresh band per request costs about
// one response, and the per-chunk sample slices, byte slices and
// per-request stream buffers of older paths cost about six. Everything in
// the process counts: coordinator, peers and this test's HTTP client.
// Under -race, whose runtime drops pooled buffers, the pre-pool budget of
// 2× applies.
func TestClusterHotReadAllocBudget(t *testing.T) {
	const edge, chunk, box, reads = 64, 32, 48, 24
	drainBandPool() // bands of other shapes, left by earlier tests, would be drawn and dropped
	nodes, read := hotCluster(t, edge, chunk, box)
	for i := 0; i < reads; i++ { // fill connection and buffer pools, on every P
		read(nodes[i%len(nodes)], hotOrigin(i, edge, box))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var body int64
	for i := 0; i < reads; i++ {
		body += read(nodes[i%len(nodes)], hotOrigin(i, edge, box))
	}
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d hot reads: %d bytes allocated for %d response bytes (%.2fx)", reads, allocated, body, float64(allocated)/float64(body))
	budget, share := body/4, "0.25x"
	if raceEnabled {
		budget, share = 2*body, "2x"
	}
	if allocated > budget {
		t.Fatalf("hot cluster reads allocated %d bytes for %d response bytes: more than %s", allocated, body, share)
	}
}

// abortAfter makes a peer die the way a crash mid-response looks from the
// coordinator: the first chunk-stream response this handler serves is cut
// n bytes in and its connection dropped.
type abortAfter struct {
	next  http.Handler
	n     int
	fired atomic.Bool
}

func (a *abortAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/internal/chunks/") || a.fired.Swap(true) {
		a.next.ServeHTTP(w, r)
		return
	}
	a.next.ServeHTTP(&abortingWriter{ResponseWriter: w, left: a.n}, r)
}

type abortingWriter struct {
	http.ResponseWriter
	left int
}

func (w *abortingWriter) Write(p []byte) (int, error) {
	if len(p) < w.left {
		w.left -= len(p)
		return w.ResponseWriter.Write(p)
	}
	w.ResponseWriter.Write(p[:w.left])
	w.ResponseWriter.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

// TestClusterPeerDiesMidFrame: a peer that drops the connection inside a
// frame — the coordinator has by then written some of that piece's rows
// straight into a response band — costs a failover and nothing else. The
// read is a 200 with an ok trailer and the single-node bytes at both
// widths, so no half-written band was flushed and the replica's delivery
// overwrote what the dead one left.
func TestClusterPeerDiesMidFrame(t *testing.T) {
	container := readFixture(t, "../../testdata/golden_adaptive_48x32x32_v3.sperr")
	info, err := sperr.Describe(container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sperr.DecompressRegionWorkers(container, [3]int{}, info.Dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf("0,0,0,%d,%d,%d", info.Dims[0], info.Dims[1], info.Dims[2])
	for _, width := range []int{8, 4} {
		// Inside the header, inside the first row, and well into the frame.
		for _, cut := range []int{5, 8 + 8*3 + 1, 8 + 8*700 + 6} {
			nodes := newClusterNodes(t, 3, nil)
			id := ingest(t, nodes[0].ts, container, http.StatusCreated)
			var peers []*abortAfter
			for _, nd := range nodes[1:] {
				a := &abortAfter{next: nd.ts.Config.Handler, n: cut}
				nd.ts.Config.Handler = a
				peers = append(peers, a)
			}
			wantRaw, _ := rawio.EncodeFloats(want, width)
			extra := "&workers=2"
			if width == 4 {
				extra += "&f32=1"
			}
			res, body := getClusterRegion(t, nodes[0], id, spec, extra)
			if res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" {
				t.Fatalf("width %d cut %d: status %d, trailer %q", width, cut, res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
			}
			if !bytes.Equal(body, wantRaw) {
				t.Fatalf("width %d cut %d: bytes differ from the single-node decode", width, cut)
			}
			if !peers[0].fired.Load() && !peers[1].fired.Load() {
				t.Fatalf("width %d cut %d: no peer stream was cut", width, cut)
			}
			if n := nodes[0].s.Registry().Counter("sperrd_replica_failover_chunks_total").Value(); n == 0 {
				t.Fatalf("width %d cut %d: a peer died mid-frame but nothing failed over", width, cut)
			}
		}
	}
}

// TestInternalChunksRejectsRepeatedIndex: a frame answers an index once,
// so a request naming one twice is malformed.
func TestInternalChunksRejectsRepeatedIndex(t *testing.T) {
	nodes := newClusterNodes(t, 2, nil)
	id := ingest(t, nodes[0].ts, readFixture(t, "../../testdata/golden_pwe_24x17x9_v2.sperr"), http.StatusCreated)
	for chunks, want := range map[string]int{"0,1": http.StatusOK, "1,0,1": http.StatusBadRequest} {
		res, body := do(t, "GET", nodes[1].url+"/v1/internal/chunks/"+id+"?region=0,0,0,24,17,9&chunks="+chunks, nil)
		if res.StatusCode != want {
			t.Fatalf("chunks=%s: status %d (%s), want %d", chunks, res.StatusCode, body, want)
		}
	}
}

// TestClusterReadsUnderCacheChurn runs concurrent region reads through
// every coordinator while each node's decoded cache holds two chunks of
// the volume's twelve, so slabs are handed to the wire writer and the band
// assembler while inserts and evictions go on around them. Every read
// must be the single-node bytes; under -race this is also the proof that
// nothing writes a slab once it has been handed out.
func TestClusterReadsUnderCacheChurn(t *testing.T) {
	container := readFixture(t, "../../testdata/golden_adaptive_48x32x32_v3.sperr")
	info, err := sperr.Describe(container)
	if err != nil {
		t.Fatal(err)
	}
	chunk := int64(info.ChunkDims[0] * info.ChunkDims[1] * info.ChunkDims[2])
	nodes := newClusterNodes(t, 3, func(_ int, cfg *Config) { cfg.CacheSamples = 2 * chunk })
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)
	d := info.Dims
	boxes := [][2][3]int{
		{{0, 0, 0}, d},
		{{d[0] / 4, d[1] / 4, d[2] / 4}, {d[0] / 2, d[1] / 2, d[2] / 2}},
		{{1, 2, 3}, {d[0] - 2, d[1] - 3, d[2] - 4}},
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				o, rd := boxes[(g+i)%len(boxes)][0], boxes[(g+i)%len(boxes)][1]
				want, err := sperr.DecompressRegionWorkers(container, o, rd, 1)
				if err != nil {
					t.Error(err)
					return
				}
				wantRaw, _ := rawio.EncodeFloats(want, 8)
				url := fmt.Sprintf("%s/v1/volumes/%s/region?region=%d,%d,%d,%d,%d,%d&workers=2",
					nodes[(g+i)%len(nodes)].url, id, o[0], o[1], o[2], rd[0], rd[1], rd[2])
				res, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(res.Body)
				res.Body.Close()
				if err != nil || res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" {
					t.Errorf("read %d/%d: status %d, trailer %q, err %v", g, i, res.StatusCode, res.Trailer.Get("X-Sperr-Status"), err)
					return
				}
				if !bytes.Equal(body, wantRaw) {
					t.Errorf("read %d/%d of %v+%v differs from the single-node decode", g, i, o, rd)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Placement decides which nodes are primary for more than two chunks;
	// at least one must be, or nothing was evicted under a reader.
	var evictions int64
	for _, nd := range nodes {
		evictions += nd.s.Store().Cache().Evictions()
	}
	if evictions == 0 {
		t.Fatal("no node ever evicted a slab: the caches did not churn")
	}
	t.Logf("%d evictions", evictions)
}

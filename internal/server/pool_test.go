package server

// The band pool's safety net. Band buffers are recycled across requests
// and never cleared, so these tests seed the pool with buffers full of a
// sentinel byte — smaller than, equal to and larger than a band — and
// then require every response to be exactly the library's bytes: a band
// that went out before each of its pieces had written every byte, or a
// buffer recycled while it was still being written, shows as stale bytes.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/rawio"
	"sperr/internal/store"
)

const sentinel = 0xA5

// seedBandPool puts buffers of the given sizes into bandPool, every byte
// the sentinel.
func seedBandPool(sizes ...int) {
	for _, n := range sizes {
		b := bytes.Repeat([]byte{sentinel}, n)
		bandPool.Put(&b)
	}
}

// poolEdge and poolChunk tile the test volume into eight chunks; a full
// band of it is poolBand bytes at f64.
const poolEdge, poolChunk, poolBand = 64, 32, 64 * 64 * 32 * 8

// seedSizes is one buffer smaller than any band of poolBoxes, one the size
// of the full volume's f64 band, and one larger than every band.
var seedSizes = []int{1 << 10, poolBand, 2 * poolBand}

type poolBox struct {
	name         string
	origin, dims [3]int
}

var poolBoxes = []poolBox{
	{"one-chunk", [3]int{35, 3, 40}, [3]int{20, 25, 17}},
	{"straddling", [3]int{10, 20, 12}, [3]int{40, 30, 45}},
	{"full", [3]int{}, [3]int{poolEdge, poolEdge, poolEdge}},
}

func (b poolBox) spec() string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d", b.origin[0], b.origin[1], b.origin[2], b.dims[0], b.dims[1], b.dims[2])
}

// regionURL is a volume-region read of box b at width.
func (b poolBox) regionURL(base, id string, width int, extra string) string {
	u := base + "/v1/volumes/" + id + "/region?region=" + b.spec() + extra
	if width == 4 {
		u += "&f32=1"
	}
	return u
}

// poolOracle decodes every box of poolBoxes with the library.
func poolOracle(t *testing.T, container []byte) map[string][]float64 {
	t.Helper()
	want := make(map[string][]float64)
	for _, b := range poolBoxes {
		v, err := sperr.DecompressRegion(container, b.origin, b.dims)
		if err != nil {
			t.Fatal(err)
		}
		want[b.name] = v
	}
	return want
}

// fetch GETs url and returns the response with its body read, the error
// rather than a test failure so that reader goroutines can call it.
func fetch(url string) (*http.Response, []byte, error) {
	res, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return res, body, err
}

// checkRead fails unless the read answered 200 with an ok trailer and
// exactly the bytes of want serialized at width.
func checkRead(res *http.Response, body []byte, want []float64, width int) error {
	if res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" {
		return fmt.Errorf("status %d, trailer %q", res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
	}
	return sameBytes(body, want, width)
}

// sameBytes fails unless body is want serialized at width and holds no
// word made only of sentinel bytes.
func sameBytes(body []byte, want []float64, width int) error {
	raw, _ := rawio.EncodeFloats(want, width)
	stale := bytes.Repeat([]byte{sentinel}, width)
	for i := 0; i+width <= len(body); i += width {
		if bytes.Equal(body[i:i+width], stale) {
			return fmt.Errorf("sample %d of %d is sentinel bytes", i/width, len(body)/width)
		}
	}
	if !bytes.Equal(body, raw) {
		return fmt.Errorf("%d body bytes differ from the library's %d", len(body), len(raw))
	}
	return nil
}

// readAll reads every box at both widths through every base URL at once,
// rounds times over, and returns the first failure.
func readAll(bases []string, id string, want map[string][]float64, rounds int) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(bases)*len(poolBoxes)*2)
	for _, base := range bases {
		for _, b := range poolBoxes {
			for _, width := range []int{8, 4} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						res, body, err := fetch(b.regionURL(base, id, width, ""))
						if err == nil {
							err = checkRead(res, body, want[b.name], width)
						}
						if err != nil {
							errs <- fmt.Errorf("%s via %s at width %d, round %d: %w", b.name, base, width, r, err)
							return
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestBandPoolSingleNode: miss, partial and hit reads of a straddling box,
// a one-chunk box and the full volume, at f64 and f32, first one at a time
// and then all at once on a cold node, are the library's bytes with the
// pool seeded with stale buffers.
func TestBandPoolSingleNode(t *testing.T) {
	container := hotContainer(t, poolEdge, poolChunk)
	want := poolOracle(t, container)
	cacheSamples := int64(2 * poolEdge * poolEdge * poolEdge)
	for _, width := range []int{8, 4} {
		seedBandPool(seedSizes...)
		_, ts := newStoreServer(t, Config{CacheSamples: cacheSamples})
		id := ingest(t, ts, container, http.StatusCreated)
		for _, outcomes := range [][]string{{"miss", "partial", "hit"}, {"hit", "hit", "hit"}} {
			for i, b := range poolBoxes {
				res, body, err := fetch(b.regionURL(ts.URL, id, width, ""))
				if err == nil {
					err = checkRead(res, body, want[b.name], width)
				}
				if err != nil {
					t.Fatalf("%s at width %d: %v", b.name, width, err)
				}
				if got := res.Header.Get("X-Sperr-Cache"); got != outcomes[i] {
					t.Fatalf("%s at width %d: cache %q, want %q", b.name, width, got, outcomes[i])
				}
			}
		}
	}
	seedBandPool(seedSizes...)
	_, ts := newStoreServer(t, Config{CacheSamples: cacheSamples})
	id := ingest(t, ts, container, http.StatusCreated)
	if err := readAll([]string{ts.URL}, id, want, 4); err != nil {
		t.Fatal(err)
	}
}

// TestBandPoolCluster: scatter-gather reads of every box at both widths,
// through every coordinator at once, are the library's bytes with the
// pool seeded with stale buffers.
func TestBandPoolCluster(t *testing.T) {
	container := hotContainer(t, poolEdge, poolChunk)
	want := poolOracle(t, container)
	nodes := newClusterNodes(t, 3, nil)
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)
	seedBandPool(seedSizes...)
	bases := make([]string, len(nodes))
	for i, n := range nodes {
		bases[i] = n.url
	}
	if err := readAll(bases, id, want, 3); err != nil {
		t.Fatal(err)
	}
}

// TestBandPoolDegradedRead: with one replica per chunk and an owner dead,
// a scatter-gather read fills that owner's chunks. With the pool seeded
// with stale buffers, every filled sample is exactly the fill value
// (NaN, or fill=) and every other one the library's, at both widths.
func TestBandPoolDegradedRead(t *testing.T) {
	container := hotContainer(t, poolEdge, poolChunk)
	want := poolOracle(t, container)
	nodes := newClusterNodes(t, 3, func(i int, cfg *Config) {
		cfg.PeerTimeout = 500 * time.Millisecond
		cfg.Replicas = 1
	})
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)
	meta, _ := nodes[0].s.Store().Describe(id)
	cl := nodes[0].s.Cluster()
	// The victim is chunk 0's owner, and another node coordinates.
	victim, coord := cl.Owner(id, 0), nodes[0]
	for _, n := range nodes {
		if n.id == victim {
			n.ts.Close()
		} else {
			coord = n
		}
	}
	lost := make(map[int]bool)
	for ci := range meta.Chunks {
		lost[ci] = cl.Owner(id, ci) == victim
	}
	for _, fill := range []struct {
		param string
		value float64
	}{{"", math.NaN()}, {"&fill=zero", 0}, {"&fill=-2.5", -2.5}} {
		for _, b := range poolBoxes[1:] { // boxes that touch every chunk
			for _, width := range []int{8, 4} {
				seedBandPool(seedSizes...)
				res, body, err := fetch(b.regionURL(coord.url, id, width, fill.param))
				if err != nil {
					t.Fatal(err)
				}
				tr := res.Trailer.Get("X-Sperr-Status")
				if res.StatusCode != http.StatusOK || !strings.HasPrefix(tr, "degraded: skipped ") {
					t.Fatalf("%s%s at width %d: status %d, trailer %q", b.name, fill.param, width, res.StatusCode, tr)
				}
				exp := filled(want[b.name], b, meta.Chunks, lost, fill.value)
				if err := sameBytes(body, exp, width); err != nil {
					t.Fatalf("%s%s at width %d: %v", b.name, fill.param, width, err)
				}
			}
		}
	}
}

// filled is the box b's samples v with every sample of a lost chunk set
// to fill.
func filled(v []float64, b poolBox, chunks []store.ChunkGeom, lost map[int]bool, fill float64) []float64 {
	out := append([]float64(nil), v...)
	for ci, cg := range chunks {
		o, d, ok := grid.Intersect(b.origin, b.dims, cg.Origin, cg.Dims)
		if !ok || !lost[ci] {
			continue
		}
		for z := o[2]; z < o[2]+d[2]; z++ {
			for y := o[1]; y < o[1]+d[1]; y++ {
				for x := o[0]; x < o[0]+d[0]; x++ {
					out[((z-b.origin[2])*b.dims[1]+y-b.origin[1])*b.dims[0]+x-b.origin[0]] = fill
				}
			}
		}
	}
	return out
}

// drainBandPool empties bandPool, reporting how many buffers it held and
// the largest capacity among them.
func drainBandPool() (n, largest int) {
	for {
		p, _ := bandPool.Get().(*[]byte)
		if p == nil {
			return n, largest
		}
		n++
		largest = max(largest, cap(*p))
	}
}

// TestBandPoolCap: a band above maxPooledBand is not returned to the pool,
// and one at the cap is.
func TestBandPoolCap(t *testing.T) {
	assemble := func(dims [3]int, copies int) {
		ras := make([]*regionAssembler, copies)
		for i := range ras {
			ras[i] = newRegionAssembler(io.Discard, [3]int{}, dims, dims, dims, 8)
			ras[i].band([3]int{}) // every buffer is drawn before any goes back
		}
		data := make([]float64, dims[0]*dims[1]*dims[2])
		for _, ra := range ras {
			if err := ra.addSlab([3]int{}, dims, [3]int{}, dims, data); err != nil {
				t.Fatal(err)
			}
			if err := ra.done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drainBandPool()
	assemble([3]int{1024, maxPooledBand/8/1024 + 1, 1}, 2)
	if n, largest := drainBandPool(); largest > maxPooledBand {
		t.Fatalf("pool holds %d buffers, the largest %d bytes: above the %d-byte cap", n, largest, maxPooledBand)
	}
	// The race detector drops a quarter of all Puts, so several bands at
	// the cap go back for one to be found.
	assemble([3]int{1024, maxPooledBand / 8 / 1024, 1}, 8)
	if n, largest := drainBandPool(); largest != maxPooledBand {
		t.Fatalf("pool holds %d buffers, the largest %d bytes: a band at the cap was not kept", n, largest)
	}
}

// scribbler is a response writer that acts as a second request would: it
// draws a band buffer from bandPool and overwrites it with the sentinel
// before it takes each write. A band recycled before its write goes out
// is in the pool at that moment, and the scribble lands in its bytes.
type scribbler struct{ bytes.Buffer }

func (s *scribbler) Write(p []byte) (int, error) {
	if q, ok := bandPool.Get().(*[]byte); ok {
		b := (*q)[:cap(*q)]
		for i := range b {
			b[i] = sentinel
		}
		bandPool.Put(q)
	}
	return s.Buffer.Write(p)
}

// TestAssemblerRecyclesAfterWrite: whatever order pieces arrive in, the
// assembler hands a band back to the pool only after its bytes are
// written, so a writer that scribbles over pooled buffers sees exactly
// the bytes a plain buffer does.
func TestAssemblerRecyclesAfterWrite(t *testing.T) {
	volDims, chunkDims := [3]int{21, 19, 9}, [3]int{8, 8, 4}
	origin, dims := [3]int{3, 2, 1}, [3]int{17, 16, 8}
	pieces := gridPieces(volDims, chunkDims, origin, dims)
	for _, width := range []int{8, 4} {
		var want bytes.Buffer
		ra := newRegionAssembler(&want, origin, dims, volDims, chunkDims, width)
		for _, p := range pieces {
			if err := ra.add(p.o, p.d, p.cut()); err != nil {
				t.Fatal(err)
			}
		}
		if err := ra.done(); err != nil {
			t.Fatal(err)
		}
		for _, reverse := range []bool{false, true} {
			seedBandPool(seedSizes...)
			var got scribbler
			ra := newRegionAssembler(&got, origin, dims, volDims, chunkDims, width)
			for i := range pieces {
				if reverse {
					i = len(pieces) - 1 - i
				}
				p := pieces[i]
				if err := ra.addSlab(p.o, p.d, p.so, p.sd, p.slab); err != nil {
					t.Fatal(err)
				}
			}
			if err := ra.done(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("width %d, reverse %v: a band was recycled before it was written", width, reverse)
			}
		}
	}
}

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"sperr"
	"sperr/internal/rawio"
)

// TestEndpointDifferential: every HTTP path that returns samples answers
// byte for byte what sperr.DecompressRegion returns, with an ok trailer,
// at both widths: the stateless region, the volume region on a miss and
// then on a hit, the cluster region, and /v1/decompress (the full box,
// streamed and through salvage=1 on an intact stream). The boxes straddle
// chunk borders, cover exactly one chunk, and cover the whole volume of
// odd extent.
func TestEndpointDifferential(t *testing.T) {
	dims := [3]int{37, 29, 23}
	container, _, err := sperr.CompressPWE(field(dims[0], dims[1], dims[2], 7), dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newStoreServer(t, Config{})
	id := ingest(t, ts, container, http.StatusCreated)
	nodes := newClusterNodes(t, 3, func(_ int, cfg *Config) { cfg.Replicas = 2 })
	cid := ingest(t, nodes[0].ts, container, http.StatusCreated)

	boxes := []struct {
		name         string
		origin, dims [3]int
	}{
		{"straddling", [3]int{10, 9, 5}, [3]int{20, 15, 14}},
		{"one-chunk", [3]int{16, 0, 16}, [3]int{16, 16, 7}},
		{"full", [3]int{}, dims},
	}
	for _, b := range boxes {
		want, err := sperr.DecompressRegion(container, b.origin, b.dims)
		if err != nil {
			t.Fatal(err)
		}
		spec := fmt.Sprintf("%d,%d,%d,%d,%d,%d", b.origin[0], b.origin[1], b.origin[2], b.dims[0], b.dims[1], b.dims[2])
		for _, width := range []int{8, 4} {
			f32 := map[int]string{8: "0", 4: "1"}[width]
			wantRaw, err := rawio.EncodeFloats(want, width)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, res *http.Response, body []byte) {
				t.Helper()
				if res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" || !bytes.Equal(body, wantRaw) {
					t.Errorf("%s box, f32=%s, %s: status %d, trailer %q, %d bytes: not the library's %d bytes",
						b.name, f32, path, res.StatusCode, res.Trailer.Get("X-Sperr-Status"), len(body), len(wantRaw))
				}
			}
			res, body := postRaw(t, ts.URL+"/v1/region?f32="+f32+"&region="+spec, container)
			check("stateless region", res, body)

			s.Store().Cache().Purge()
			for _, outcome := range []string{"miss", "hit"} {
				res, body = do(t, "GET", ts.URL+"/v1/volumes/"+id+"/region?f32="+f32+"&region="+spec, nil)
				check("volume region ("+outcome+")", res, body)
				if got := res.Header.Get("X-Sperr-Cache"); got != outcome {
					t.Errorf("%s box, f32=%s: volume region X-Sperr-Cache %q, want %q", b.name, f32, got, outcome)
				}
			}

			res, body = getClusterRegion(t, nodes[1], cid, spec, "&f32="+f32)
			check("cluster region", res, body)

			if b.name != "full" {
				continue
			}
			res, body = postRaw(t, ts.URL+"/v1/decompress?f32="+f32, container)
			check("decompress", res, body)
			res, body = postRaw(t, ts.URL+"/v1/decompress?salvage=1&f32="+f32, container)
			check("decompress salvage=1", res, body)
		}
	}
}

// TestStatelessRegionRefusesStubs: a shard posted to /v1/region answers
// the boxes inside its kept chunks, and refuses any box that reaches a
// stub with a 400 and no samples. That holds even when the kept chunks
// fill the region's first z-band, larger than the response buffer, and
// decode first: the stubs are found in the index before the response
// starts.
func TestStatelessRegionRefusesStubs(t *testing.T) {
	dims := [3]int{64, 64, 40}
	container, _, err := sperr.CompressPWE(field(dims[0], dims[1], dims[2], 7), dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	// 4x4x3 chunks in container order: the first 16 are the z = 0 band.
	shard, err := sperr.SliceShard(container, func(i int) bool { return i < 16 })
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	want, err := sperr.DecompressRegion(container, [3]int{}, [3]int{dims[0], dims[1], 16})
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := rawio.EncodeFloats(want, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, body := postRaw(t, ts.URL+"/v1/region?region=0,0,0,64,64,16", shard)
	if res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok" || !bytes.Equal(body, wantRaw) {
		t.Fatalf("box inside the kept chunks: status %d, trailer %q, %d bytes, want the library's %d",
			res.StatusCode, res.Trailer.Get("X-Sperr-Status"), len(body), len(wantRaw))
	}
	for _, spec := range []string{"0,0,0,64,64,40", "20,20,20,1,1,1"} {
		// One worker decodes the kept band before it reaches a stub.
		res, body := postRaw(t, ts.URL+"/v1/region?workers=1&region="+spec, shard)
		if res.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("stub")) {
			t.Errorf("box %s over stubs: status %d, trailer %q, %d bytes, want 400 naming the stub",
				spec, res.StatusCode, res.Trailer.Get("X-Sperr-Status"), len(body))
		}
	}
}

package server

// Degraded decompression e2e: a client that opts in via the salvage
// header receives a full-extent volume with damaged chunks filled, a
// "degraded" completion trailer naming the lost chunks, and the salvage
// counters move — all while the worker pool stays healthy for the next
// request.

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"strings"
	"testing"

	"sperr"
	"sperr/internal/rawio"
)

// damageFrame returns a copy of stream with one bit flipped inside the
// payload of frame idx, plus that chunk's index (== idx: frames are in
// container order).
func damageFrame(t *testing.T, stream []byte, idx int) []byte {
	t.Helper()
	info, err := sperr.Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	off := 36
	for i := 0; i < idx; i++ {
		off += 4 + info.FrameBytes[i] + 4
	}
	mut := bytes.Clone(stream)
	mut[off+4+info.FrameBytes[idx]/2] ^= 0x10
	return mut
}

func TestDegradedDecompress(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 21)
	stream, _, err := sperr.CompressPWE(data, dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	mut := damageFrame(t, stream, 1)

	// Without the opt-in, the damaged stream must NOT silently succeed:
	// the status line or the completion trailer carries the failure.
	res, _ := postRaw(t, ts.URL+"/v1/decompress", mut)
	if res.StatusCode == 200 && res.Trailer.Get("X-Sperr-Status") == "ok" {
		t.Fatal("damaged stream decompressed with ok status and no opt-in")
	}

	// With the opt-in header, the response is 200, full extent, trailer
	// "degraded" with the exact skipped-chunk list.
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/decompress", bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Sperr-salvage", "1")
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(hres.Body); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != 200 {
		t.Fatalf("degraded decompress status %d: %s", hres.StatusCode, body.Bytes())
	}
	if got := hres.Trailer.Get("X-Sperr-Status"); got != "degraded: skipped 1" {
		t.Fatalf("trailer %q, want %q", got, "degraded: skipped 1")
	}
	got, err := rawio.DecodeFloats(body.Bytes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sperr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded body has %d samples, want the full %d", len(got), len(want))
	}

	// Chunk 1 of the 16^3 tiling of 24x17x9 covers x in [16,24): those
	// samples are NaN, every other sample matches the intact decode
	// bit-for-bit.
	rep, err := sperr.Audit(mut)
	if err != nil {
		t.Fatal(err)
	}
	if idx := rep.SkippedIndices(); len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("audit skipped %v, want [1]", idx)
	}
	c := rep.Chunks[1]
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				i := (z*dims[1]+y)*dims[0] + x
				inLost := x >= c.Origin[0] && x < c.Origin[0]+c.Dims.NX &&
					y >= c.Origin[1] && y < c.Origin[1]+c.Dims.NY &&
					z >= c.Origin[2] && z < c.Origin[2]+c.Dims.NZ
				if inLost {
					if !math.IsNaN(got[i]) {
						t.Fatalf("lost-chunk sample (%d,%d,%d) = %g, want NaN", x, y, z, got[i])
					}
				} else if got[i] != want[i] {
					t.Fatalf("intact sample (%d,%d,%d): %g vs %g", x, y, z, got[i], want[i])
				}
			}
		}
	}

	// Salvage counters moved.
	text := string(getBody(t, ts.URL+"/metrics"))
	for _, m := range []string{
		"sperrd_salvage_requests_total 1",
		"sperrd_salvage_degraded_total 1",
		"sperrd_salvage_chunks_recovered_total 3",
		"sperrd_salvage_chunks_lost_total 1",
	} {
		if !strings.Contains(text, m) {
			t.Errorf("/metrics missing %q", m)
		}
	}

	// The pool stays healthy: an intact stream round-trips normally and
	// the admission budget fully drains.
	res, rawOut := postRaw(t, ts.URL+"/v1/decompress?salvage=1", stream)
	if res.StatusCode != 200 || res.Trailer.Get("X-Sperr-Status") != "ok" {
		t.Fatalf("post-degraded decompress: status %d trailer %q",
			res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
	}
	clean, err := rawio.DecodeFloats(rawOut, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != want[i] {
			t.Fatalf("post-degraded sample %d: %g vs %g", i, clean[i], want[i])
		}
	}
	waitFor(t, "budget drained", func() bool { return s.Admission().InUse() == 0 })
}

// TestDegradedFillZero exercises the fill parameter: zero-filled holes
// instead of NaN.
func TestDegradedFillZero(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 22)
	stream, _, err := sperr.CompressPWE(data, dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	mut := damageFrame(t, stream, 2)

	res, body := postRaw(t, ts.URL+"/v1/decompress?salvage=1&fill=zero", mut)
	if res.StatusCode != 200 {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	if got := res.Trailer.Get("X-Sperr-Status"); got != "degraded: skipped 2" {
		t.Fatalf("trailer %q", got)
	}
	got, err := rawio.DecodeFloats(body, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sperr.Audit(mut)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Chunks[2]
	zeros := 0
	for z := c.Origin[2]; z < c.Origin[2]+c.Dims.NZ; z++ {
		for y := c.Origin[1]; y < c.Origin[1]+c.Dims.NY; y++ {
			for x := c.Origin[0]; x < c.Origin[0]+c.Dims.NX; x++ {
				v := got[(z*dims[1]+y)*dims[0]+x]
				if v != 0 {
					t.Fatalf("fill=zero sample (%d,%d,%d) = %g", x, y, z, v)
				}
				zeros++
			}
		}
	}
	if zeros != c.Dims.NX*c.Dims.NY*c.Dims.NZ {
		t.Fatalf("covered %d fill samples, want %d", zeros, c.Dims.NX*c.Dims.NY*c.Dims.NZ)
	}
}

// TestDegradedLengthPrefixFlip: a flipped byte in frame 1's length prefix
// leaves every payload and the index footer intact, so salvage=1 locates
// all four frames through the footer and answers the clean decode with no
// chunk skipped. (A sequential reader loses its framing there and, read
// tolerantly, used to drop chunks 1, 2 and 3.)
func TestDegradedLengthPrefixFlip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{64, 16, 16}
	stream, _, err := sperr.CompressPWE(field(dims[0], dims[1], dims[2], 23), dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := sperr.Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumChunks != 4 {
		t.Fatalf("fixture has %d chunks, want 4", info.NumChunks)
	}
	_, want := postRaw(t, ts.URL+"/v1/decompress", stream)
	prefix := 36 + 4 + info.FrameBytes[0] + 4 // frame 1's length prefix
	for _, mask := range []byte{0x01, 0x80} {
		mut := bytes.Clone(stream)
		mut[prefix] ^= mask
		res, body := postRaw(t, ts.URL+"/v1/decompress?salvage=1", mut)
		if res.StatusCode != 200 {
			t.Fatalf("mask %#02x: status %d: %s", mask, res.StatusCode, body)
		}
		if got := res.Trailer.Get("X-Sperr-Status"); got != "ok" {
			t.Fatalf("mask %#02x: trailer %q, want ok", mask, got)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("mask %#02x: body differs from the clean decode", mask)
		}
	}
}

// TestDegradedBodyCap: salvage=1 buffers the container, so a body above
// MaxContainerBytes is refused with 413 as /v1/describe and /v1/region are.
func TestDegradedBodyCap(t *testing.T) {
	dims := [3]int{24, 17, 9}
	stream, _, err := sperr.CompressPWE(field(dims[0], dims[1], dims[2], 24), dims, testTol, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxContainerBytes: int64(len(stream) - 1)})
	if res, body := postRaw(t, ts.URL+"/v1/decompress?salvage=1", stream); res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d with %d body bytes, want 413", res.StatusCode, len(body))
	}
	if res, _ := postRaw(t, ts.URL+"/v1/decompress", stream); res.StatusCode != 200 || res.Trailer.Get("X-Sperr-Status") != "ok" {
		t.Fatalf("streaming decompress under the cap: status %d trailer %q", res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
	}
}

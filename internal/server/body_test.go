package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestContainerBodyAllocation: a buffered container body costs its
// declared length and no more. A Content-Length over -max-container-mb is
// refused with 413 before a byte of the body is read; one under the cap is
// read into a buffer of exactly that length. A body of unknown length is
// still read only up to the cap. Reading every body through io.ReadAll
// allocated a few times the body, and the whole cap before refusing a
// declared 4 MiB body under a 1 MiB cap. The bill is not held under -race.
func TestContainerBodyAllocation(t *testing.T) {
	const capBytes = 1 << 20
	s, _ := newTestServer(t, Config{MaxContainerBytes: capBytes})
	serve := func(body io.Reader, n int64) (code int, read int64) {
		cr := &countingReader{r: body}
		req := httptest.NewRequest("POST", "/v1/describe", cr)
		req.ContentLength = n
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, cr.n
	}
	// allocated is the least a request allocates over a few tries; its
	// body is allocated before.
	allocated := func(size int, want int) uint64 {
		junk := make([]byte, size)
		least := ^uint64(0)
		for i := 0; i < 4; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code, read := serve(bytes.NewReader(junk), int64(size))
			runtime.ReadMemStats(&after)
			if code != want || (want == http.StatusRequestEntityTooLarge && read != 0) {
				t.Fatalf("%d-byte body: status %d after reading %d bytes, want %d", size, code, read, want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}

	over := allocated(4*capBytes, http.StatusRequestEntityTooLarge)
	under := allocated(capBytes/2, http.StatusBadRequest) // read whole, then refused as no container
	t.Logf("refusing a declared 4 MiB body allocates %d bytes; reading a 512 KiB one %d", over, under)
	if !raceEnabled && (over > 64<<10 || under > capBytes/2+64<<10) {
		t.Fatalf("refusing a 4 MiB body allocated %d bytes, reading a 512 KiB one %d", over, under)
	}

	// No Content-Length: the bounded read refuses past the cap.
	if code, _ := serve(io.MultiReader(bytes.NewReader(make([]byte, 2*capBytes))), -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("unsized 2 MiB body: status %d, want 413", code)
	}
}

// TestDeclaredBodyAllocatesAsItArrives: a Content-Length under the cap is
// a claim, not bytes. A request that declares a 256 MiB body under a
// 1 GiB cap and then sends 1 MiB of it allocates about bodyPrealloc plus
// what arrived, not the declared length; allocating the declared length up
// front let a stalled client pin the cap per connection.
func TestDeclaredBodyAllocatesAsItArrives(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxContainerBytes: 1 << 30})
	const declared, sent = 256 << 20, 1 << 20
	junk := make([]byte, sent)
	least := ^uint64(0)
	for i := 0; i < 4; i++ {
		req := httptest.NewRequest("POST", "/v1/describe", bytes.NewReader(junk))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body cut at %d of %d declared bytes: status %d, want 400", sent, declared, rec.Code)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a declared %d-byte body cut at %d bytes allocates %d bytes", declared, sent, least)
	if !raceEnabled && least > bodyPrealloc+64<<10 {
		t.Fatalf("a declared %d-byte body cut at %d bytes allocated %d bytes, want at most %d",
			declared, sent, least, bodyPrealloc+64<<10)
	}
}

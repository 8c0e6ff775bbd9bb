package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sperr"
	"sperr/internal/rawio"
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

// TestStalledBodyTimesOut: a client that sends its headers and half its
// body, then stalls, is answered 408 once the body has been idle for
// bodyIdleTimeout, on a streamed compress and on a buffered container
// read alike, and the compress gives back its admission charge. Without
// the idle deadline such a client held its handler, its buffers and its
// charge for as long as it kept the connection open.
func TestStalledBodyTimesOut(t *testing.T) {
	shortenBodyIdle(t, 200*time.Millisecond)
	s, ts := newTestServer(t, Config{ChunkDims: [3]int{16, 16, 16}})
	dims := [3]int{32, 32, 32}
	raw, _ := rawio.EncodeFloats(field(dims[0], dims[1], dims[2], 5), 8)
	for _, path := range []string{compressURL("", dims), "/v1/describe"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(testDeadline))
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: sperrd\r\nContent-Length: %d\r\n\r\n", path, len(raw))
		if _, err := conn.Write(raw[:len(raw)/2]); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("%s: stalled body answered %d, want 408", path, res.StatusCode)
		}
		if waited := time.Since(start); waited > 10*bodyIdleTimeout {
			t.Fatalf("%s: 408 after %v, idle deadline %v", path, waited, bodyIdleTimeout)
		}
		waitFor(t, "admission released", func() bool { return s.Admission().InUse() == 0 })
	}
}

// shortenBodyIdle sets bodyIdleTimeout to d for one test. Called before
// the test starts its server, it restores the old value only after the
// server has closed and no handler can read it any more.
func shortenBodyIdle(t *testing.T, d time.Duration) {
	old := bodyIdleTimeout
	bodyIdleTimeout = d
	t.Cleanup(func() { bodyIdleTimeout = old })
}

// trickle is a request body that arrives in pieces, with a pause before
// each.
type trickle struct {
	data  []byte
	piece int
	pause time.Duration
}

func (b *trickle) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(b.pause)
	n := copy(p[:min(len(p), b.piece)], b.data)
	b.data = b.data[n:]
	return n, nil
}

// TestTricklingBodySucceeds: the idle deadline is refreshed on every
// read, so a body whose pieces each arrive well inside bodyIdleTimeout
// compresses as usual, however long the whole body takes.
func TestTricklingBodySucceeds(t *testing.T) {
	shortenBodyIdle(t, 150*time.Millisecond)
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 7)
	raw, _ := rawio.EncodeFloats(data, 8)
	want, _, err := sperr.CompressPWE(data, dims, testTol, &sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	body := &trickle{data: raw, piece: len(raw)/12 + 1, pause: 25 * time.Millisecond}
	req, err := http.NewRequestWithContext(ctx, "POST", compressURL(ts.URL, dims), body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(raw))
	start := time.Now()
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != 200 || res.Trailer.Get("X-Sperr-Status") != "ok" {
		t.Fatalf("trickled body: status %d, trailer %q, %v", res.StatusCode, res.Trailer.Get("X-Sperr-Status"), err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatal("trickled body: stream differs from the library's")
	}
	t.Logf("a body in %d-byte pieces took %v, idle deadline %v", body.piece, time.Since(start), bodyIdleTimeout)
}

// deadlineRecorder is a ResponseWriter that records read deadlines.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	set []time.Time
}

func (w *deadlineRecorder) SetReadDeadline(d time.Time) error {
	w.set = append(w.set, d)
	return nil
}

// TestIdleBodyClearsDeadlineAtEnd: every body read arms the idle deadline
// and the read that ends the body clears it. Left armed, it fired in the
// server's background read of the connection once the body had ended and
// canceled the request's context during a long encode.
func TestIdleBodyClearsDeadlineAtEnd(t *testing.T) {
	w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	b := &idleBody{io.NopCloser(bytes.NewReader(make([]byte, 10))), http.NewResponseController(w), &reqStats{}}
	if n, err := io.Copy(io.Discard, b); n != 10 || err != nil {
		t.Fatalf("read %d bytes, %v", n, err)
	}
	if len(w.set) < 2 || w.set[0].IsZero() || !w.set[len(w.set)-1].IsZero() {
		t.Fatalf("read deadlines %v: want armed ones, then cleared", w.set)
	}
}

// TestDecompressStreamsWhileBodyArrives: a streamed /v1/decompress writes
// its first bands while the container is still arriving. Without full
// duplex the HTTP/1 server closed the unread request body at the first
// band, and a container of more than a few hundred KiB came back as a 200
// whose trailer reported the closed body. The connection stays usable
// after a full decode, a refused one and one sent chunked, whose last
// bytes the decode never reads: left for net/http to drain after the
// handler, they restarted its background read of the connection, and the
// next request on it panicked with a concurrent Body.Read.
func TestDecompressStreamsWhileBodyArrives(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{64, 64, 64}
	data := field(dims[0], dims[1], dims[2], 5)
	container, _, err := sperr.CompressPWE(data, dims, 1e-9, &sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(container) < 512<<10 {
		t.Fatalf("container of %d bytes: the first band must go out before the body ends", len(container))
	}
	want, _, err := sperr.Decompress(container)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := rawio.EncodeFloats(want, 8)
	// One connection, reused by every request.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: testDeadline}
	defer client.CloseIdleConnections()
	post := func(path string, body io.Reader) (*http.Response, []byte) {
		t.Helper()
		res, err := client.Post(ts.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer res.Body.Close()
		out, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return res, out
	}
	decodes := []struct {
		name string
		body func() io.Reader
		ok   bool
	}{
		{"whole", func() io.Reader { return bytes.NewReader(container) }, true},
		{"refused", func() io.Reader { return bytes.NewReader(append([]byte("not a container"), container[:64<<10]...)) }, false},
		{"chunked", func() io.Reader { return io.MultiReader(bytes.NewReader(container)) }, true},
	}
	for _, d := range decodes {
		res, body := post("/v1/decompress?workers=2", d.body())
		switch {
		case !d.ok && res.StatusCode != http.StatusBadRequest:
			t.Fatalf("%s: status %d, want 400", d.name, res.StatusCode)
		case d.ok && (res.StatusCode != http.StatusOK || res.Trailer.Get("X-Sperr-Status") != "ok"):
			t.Fatalf("%s: status %d, trailer %q", d.name, res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
		case d.ok && !bytes.Equal(body, raw):
			t.Fatalf("%s: streamed decode differs from the library's (%d bytes)", d.name, len(body))
		}
		if res, _ := post("/v1/describe", bytes.NewReader(container)); res.StatusCode != http.StatusOK {
			t.Fatalf("describe after the %s decode: status %d", d.name, res.StatusCode)
		}
	}
}

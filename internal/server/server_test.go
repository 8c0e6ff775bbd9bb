package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sperr"
	"sperr/internal/rawio"
)

// field builds a small deterministic smooth-plus-noise volume.
func field(nx, ny, nz int, seed int64) []float64 {
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

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testDeadline bounds every e2e request: a server regression that stalls
// a stream fails the test with a context error instead of hanging CI.
const testDeadline = 30 * time.Second

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	res, out, err := postCtx(ctx, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// postCtx is the deadline-carrying POST all e2e tests go through.
func postCtx(ctx context.Context, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return res, out, nil
}

// getBody fetches url under the standard test deadline.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

const testTol = 1e-4

// compressURL builds a compress request for the standard test options.
func compressURL(base string, dims [3]int) string {
	return fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=%g&chunk=16,16,16",
		base, dims[0], dims[1], dims[2], testTol)
}

// TestRoundTripMatchesLibrary: the service must produce byte-identical
// streams and reconstructions to the library API.
func TestRoundTripMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 7)
	raw, _ := rawio.EncodeFloats(data, 8)

	res, stream := postRaw(t, compressURL(ts.URL, dims), raw)
	if res.StatusCode != 200 {
		t.Fatalf("compress status %d: %s", res.StatusCode, stream)
	}
	if got := res.Trailer.Get("X-Sperr-Status"); got != "ok" {
		t.Fatalf("compress trailer %q", got)
	}

	wantStream, _, err := sperr.CompressPWE(data, dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, wantStream) {
		t.Fatalf("service stream (%d bytes) differs from library stream (%d bytes)",
			len(stream), len(wantStream))
	}

	res, rawOut := postRaw(t, ts.URL+"/v1/decompress", stream)
	if res.StatusCode != 200 {
		t.Fatalf("decompress status %d: %s", res.StatusCode, rawOut)
	}
	if got := res.Trailer.Get("X-Sperr-Status"); got != "ok" {
		t.Fatalf("decompress trailer %q", got)
	}
	got, err := rawio.DecodeFloats(rawOut, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sperr.Decompress(wantStream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: service %g, library %g", i, got[i], want[i])
		}
	}
}

// TestConcurrentClients round-trips distinct volumes from N clients at
// once; every reconstruction must match the library bit-for-bit.
func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 8
	dims := [3]int{32, 19, 11}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
			defer cancel()
			data := field(dims[0], dims[1], dims[2], seed)
			raw, _ := rawio.EncodeFloats(data, 8)
			res, stream, err := postCtx(ctx, compressURL(ts.URL, dims), raw)
			if err != nil {
				errs <- err
				return
			}
			if res.StatusCode != 200 {
				errs <- fmt.Errorf("compress status %d", res.StatusCode)
				return
			}
			res, rawOut, err := postCtx(ctx, ts.URL+"/v1/decompress", stream)
			if err != nil {
				errs <- err
				return
			}
			if res.StatusCode != 200 {
				errs <- fmt.Errorf("decompress status %d", res.StatusCode)
				return
			}
			got, err := rawio.DecodeFloats(rawOut, 8)
			if err != nil {
				errs <- err
				return
			}
			wantStream, _, err := sperr.CompressPWE(data, dims, testTol,
				&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
			if err != nil {
				errs <- err
				return
			}
			want, _, err := sperr.Decompress(wantStream)
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("seed %d sample %d: %g vs %g", seed, i, got[i], want[i])
					return
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p, c := s.Admission().Peak(), s.Admission().Capacity(); p > c {
		t.Fatalf("admission peak %d exceeded capacity %d", p, c)
	}
	if u := s.Admission().InUse(); u != 0 {
		t.Fatalf("admission inUse %d after all requests", u)
	}
}

// TestFloat32RoundTrip: f32 request and response bodies, matching the
// library's float32 path.
func TestFloat32RoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 3)
	f32 := make([]float32, len(data))
	for i, v := range data {
		f32[i] = float32(v)
	}
	raw, _ := rawio.EncodeFloats(data, 4) // narrows to f32 bytes

	res, stream := postRaw(t, compressURL(ts.URL, dims)+"&f32=1", raw)
	if res.StatusCode != 200 {
		t.Fatalf("compress status %d: %s", res.StatusCode, stream)
	}
	wantStream, _, err := sperr.CompressPWEFloat32(f32, dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, wantStream) {
		t.Fatal("f32 service stream differs from library stream")
	}

	res, rawOut := postRaw(t, ts.URL+"/v1/decompress?f32=1&workers=3", stream)
	if res.StatusCode != 200 {
		t.Fatalf("decompress status %d", res.StatusCode)
	}
	want, _, err := sperr.DecompressFloat32Workers(wantStream, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := rawio.DecodeFloats(rawOut, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotF {
		if float32(gotF[i]) != want[i] {
			t.Fatalf("f32 sample %d: %g vs %g", i, gotF[i], want[i])
		}
	}
}

func TestDescribeAndRegion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 17, 9}
	data := field(dims[0], dims[1], dims[2], 5)
	stream, _, err := sperr.CompressPWE(data, dims, testTol,
		&sperr.Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}

	res, body := postRaw(t, ts.URL+"/v1/describe", stream)
	if res.StatusCode != 200 {
		t.Fatalf("describe status %d: %s", res.StatusCode, body)
	}
	var info sperr.StreamInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Dims != dims || info.Mode != "pwe" || info.Tolerance != testTol || info.NumChunks != 4 {
		t.Fatalf("describe drifted: %+v", info)
	}

	origin, rdims := [3]int{4, 3, 2}, [3]int{10, 9, 5}
	res, rawOut := postRaw(t,
		fmt.Sprintf("%s/v1/region?region=%d,%d,%d,%d,%d,%d", ts.URL,
			origin[0], origin[1], origin[2], rdims[0], rdims[1], rdims[2]), stream)
	if res.StatusCode != 200 {
		t.Fatalf("region status %d: %s", res.StatusCode, rawOut)
	}
	got, err := rawio.DecodeFloats(rawOut, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sperr.DecompressRegion(stream, origin, rdims)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("region %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("region sample %d: %g vs %g", i, got[i], want[i])
		}
	}

	// Corrupt container: must fail cleanly with 400.
	res, body = postRaw(t, ts.URL+"/v1/describe", []byte("SPRRGO99 garbage"))
	if res.StatusCode != 400 {
		t.Fatalf("corrupt describe status %d: %s", res.StatusCode, body)
	}
}

func TestBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, url string
	}{
		{"no dims", "/v1/compress?tol=1e-3"},
		{"no mode", "/v1/compress?dims=8,8,8"},
		{"two modes", "/v1/compress?dims=8,8,8&tol=1e-3&bpp=2"},
		{"bad dims", "/v1/compress?dims=8,8&tol=1e-3"},
		{"bad region", "/v1/region?region=1,2,3"},
	} {
		res, body := postRaw(t, ts.URL+tc.url, []byte("x"))
		if res.StatusCode != 400 {
			t.Errorf("%s: status %d (%s), want 400", tc.name, res.StatusCode, body)
		}
	}
	// Truncated body: fewer samples than dims promise.
	res, _ := postRaw(t, compressURL(ts.URL, [3]int{8, 8, 8}), make([]byte, 64))
	if res.StatusCode == 200 && res.Trailer.Get("X-Sperr-Status") == "ok" {
		t.Error("truncated body reported success")
	}
}

// slowBody feeds a request body under test control: Write data through
// pw, hold, then close to finish.
func startStalledCompress(t *testing.T, ts *httptest.Server, dims [3]int, data []float64) (
	finish func(rest bool), done chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	raw, _ := rawio.EncodeFloats(data, 8)
	half := len(raw) / 2
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, "POST", compressURL(ts.URL, dims), pr)
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan *http.Response, 1)
	go func() {
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		done <- res
	}()
	if _, err := pw.Write(raw[:half]); err != nil {
		t.Fatal(err)
	}
	finish = func(rest bool) {
		if rest {
			pw.Write(raw[half:])
		}
		pw.Close()
	}
	return finish, done
}

// TestOverloadAdmission: with a budget sized for exactly one request and
// a queue of one, concurrent requests beyond the queue see 429s with
// Retry-After, the queued request eventually succeeds, and the charged
// in-flight samples never exceed the budget.
func TestOverloadAdmission(t *testing.T) {
	dims := [3]int{32, 32, 16}
	chunk := [3]int{16, 16, 16}
	workers := 2
	cost := engineCost(dims, chunk, workers)
	s, ts := newTestServer(t, Config{
		BudgetSamples: cost, // exactly one admitted request
		MaxQueue:      1,
		QueueWait:     5 * time.Second,
		Workers:       workers,
		ChunkDims:     chunk,
	})
	data := field(dims[0], dims[1], dims[2], 11)

	// Request A admits and stalls mid-body, pinning the whole budget.
	finishA, doneA := startStalledCompress(t, ts, dims, data)
	waitFor(t, "A admitted", func() bool { return s.Admission().InUse() == cost })

	// Request B queues (fits the queue, not the budget).
	finishB, doneB := startStalledCompress(t, ts, dims, data)
	waitFor(t, "B queued", func() bool { return s.Admission().QueueDepth() == 1 })

	// C and D overflow the queue: 429 + Retry-After, immediately.
	for _, name := range []string{"C", "D"} {
		raw, _ := rawio.EncodeFloats(data, 8)
		res, body := postRaw(t, compressURL(ts.URL, dims), raw)
		if res.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d (%s), want 429", name, res.StatusCode, body)
		}
		if res.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: missing Retry-After", name)
		}
	}

	// Release A; B must then admit and both must complete.
	finishA(true)
	if res := <-doneA; res == nil || res.StatusCode != 200 {
		t.Fatalf("A failed: %+v", res)
	}
	waitFor(t, "B admitted", func() bool { return s.Admission().QueueDepth() == 0 })
	finishB(true)
	if res := <-doneB; res == nil || res.StatusCode != 200 {
		t.Fatalf("B failed: %+v", res)
	}

	if p := s.Admission().Peak(); p > cost {
		t.Fatalf("in-flight samples peaked at %d, budget %d", p, cost)
	}
	waitFor(t, "budget drained", func() bool { return s.Admission().InUse() == 0 })

	// The rejections must be visible on the metrics surface.
	text := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(text), `sperrd_admission_rejected_total{reason="queue_full"} 2`) {
		t.Fatalf("metrics missing queue_full rejections:\n%s", text)
	}
}

// TestClientDisconnectCancels: dropping a compress connection mid-body
// must cancel the request's chunk workers (canceled counter, budget
// released) without wedging the pool for later requests.
func TestClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{ChunkDims: [3]int{16, 16, 16}})
	dims := [3]int{32, 32, 32}
	data := field(dims[0], dims[1], dims[2], 13)
	raw, _ := rawio.EncodeFloats(data, 8)

	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", compressURL(ts.URL, dims), pr)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
	}()
	// Feed half the volume so the engine has dispatched work, then drop.
	if _, err := pw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "request admitted", func() bool { return s.Admission().InUse() > 0 })
	cancel()
	pw.CloseWithError(context.Canceled)
	<-clientDone

	waitFor(t, "cancellation observed", func() bool {
		return s.Registry().Counter("sperrd_requests_canceled_total").Value() >= 1
	})
	waitFor(t, "budget released", func() bool { return s.Admission().InUse() == 0 })

	// The pool must not be wedged: a fresh round trip succeeds.
	res, stream := postRaw(t, compressURL(ts.URL, dims), raw)
	if res.StatusCode != 200 || res.Trailer.Get("X-Sperr-Status") != "ok" {
		t.Fatalf("post-cancel compress: status %d trailer %q",
			res.StatusCode, res.Trailer.Get("X-Sperr-Status"))
	}
	res, _ = postRaw(t, ts.URL+"/v1/decompress", stream)
	if res.StatusCode != 200 {
		t.Fatalf("post-cancel decompress status %d", res.StatusCode)
	}
}

// TestShutdownDrains: after Shutdown starts, new requests are refused
// with 503 and healthz flips unhealthy.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, body := postRaw(t, compressURL(ts.URL, [3]int{8, 8, 8}), make([]byte, 8*512))
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain compress status %d (%s), want 503", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain response missing Retry-After")
	}
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", hres.StatusCode)
	}
}

// TestMetricsAndExpvar: the surfaces are mounted and non-empty.
func TestMetricsAndExpvar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{16, 16, 8}
	data := field(dims[0], dims[1], dims[2], 2)
	raw, _ := rawio.EncodeFloats(data, 8)
	if res, _ := postRaw(t, compressURL(ts.URL, dims), raw); res.StatusCode != 200 {
		t.Fatalf("compress status %d", res.StatusCode)
	}
	text := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`sperrd_requests_total{endpoint="compress",code="200"} 1`,
		"sperrd_request_seconds",
		"sperrd_bytes_in_total",
		"sperrd_admission_inuse_samples",
		"sperrd_chunks_total",
		"sperrd_compression_ratio",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	vars := getBody(t, ts.URL+"/debug/vars")
	if !strings.Contains(string(vars), "sperrd") {
		t.Error("/debug/vars missing the sperrd registry")
	}
}

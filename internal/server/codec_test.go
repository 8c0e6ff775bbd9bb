package server

// End-to-end coverage of the codec= knob: adaptive and pinned-backend
// compressions through the HTTP surface, the v3 streams they emit, the
// per-backend chunk counters, and the parameter validation table.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sperr"
	"sperr/internal/rawio"
)

// hetero builds a volume whose x-slabs favor different backends, so an
// adaptive compression through the server mixes codecs.
func hetero(nx, ny, nz int) []float64 {
	data := make([]float64, nx*ny*nz)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				switch {
				case x < nx/3:
					data[i] = 1.25
				case x < 2*nx/3:
					data[i] = 0.05*float64(x) + 0.01*float64(y*z)
				default:
					data[i] = 8 * math.Sin(1.3*float64(x)) * math.Cos(0.9*float64(y+z))
				}
				i++
			}
		}
	}
	return data
}

func TestCompressCodecParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dims := [3]int{24, 8, 8}
	data := hetero(dims[0], dims[1], dims[2])
	raw, _ := rawio.EncodeFloats(data, 8)

	// codec=adaptive: a v3 stream, mixed or not, that round-trips within
	// tol and bumps the per-backend counters.
	url := fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=1e-3&chunk=8,8,8&codec=adaptive",
		ts.URL, dims[0], dims[1], dims[2])
	res, stream := postRaw(t, url, raw)
	if res.StatusCode != 200 {
		t.Fatalf("adaptive compress: %d %s", res.StatusCode, stream)
	}
	info, err := sperr.Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || info.Mode != "adaptive" {
		t.Fatalf("adaptive stream: version %d mode %q", info.Version, info.Mode)
	}
	rec, rdims, err := sperr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if rdims != dims {
		t.Fatalf("dims %v", rdims)
	}
	for i := range data {
		if math.Abs(rec[i]-data[i]) > 1e-3*(1+1e-9) {
			t.Fatalf("PWE violated at %d", i)
		}
	}

	// Pinned backend: every chunk tagged zfp.
	url = fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=1e-3&chunk=8,8,8&codec=zfp",
		ts.URL, dims[0], dims[1], dims[2])
	res, zstream := postRaw(t, url, raw)
	if res.StatusCode != 200 {
		t.Fatalf("zfp compress: %d %s", res.StatusCode, zstream)
	}
	zinfo, err := sperr.Describe(zstream)
	if err != nil {
		t.Fatal(err)
	}
	if zinfo.Version != 3 || zinfo.CodecCounts["zfp"] != zinfo.NumChunks {
		t.Fatalf("zfp stream: version %d counts %v", zinfo.Version, zinfo.CodecCounts)
	}

	// Metrics: the codec counters must cover every chunk of both runs.
	metrics := string(getBody(t, ts.URL+"/metrics"))
	if !strings.Contains(metrics, `sperrd_codec_chunks_total{codec="zfp"}`) {
		t.Fatalf("metrics missing zfp codec counter:\n%s", metrics)
	}
	for name := range info.CodecCounts {
		if !strings.Contains(metrics, fmt.Sprintf("sperrd_codec_chunks_total{codec=%q}", name)) {
			t.Fatalf("metrics missing %s codec counter", name)
		}
	}

	// Validation: non-SPERR codecs demand a PWE bound; unknown names are
	// rejected before any data is read.
	for _, bad := range []string{
		fmt.Sprintf("%s/v1/compress?dims=24,8,8&bpp=2&codec=sz", ts.URL),
		fmt.Sprintf("%s/v1/compress?dims=24,8,8&bpp=2&codec=adaptive", ts.URL),
		fmt.Sprintf("%s/v1/compress?dims=24,8,8&tol=1e-3&codec=lz4", ts.URL),
	} {
		res, body := postRaw(t, bad, raw)
		if res.StatusCode != 400 {
			t.Errorf("%s: status %d %s, want 400", bad, res.StatusCode, body)
		}
	}

	// The retired SPECK-AC layer: asking for it is a 400 naming the
	// retirement, never a silently raw-coded stream.
	res, body := postRaw(t, fmt.Sprintf("%s/v1/compress?dims=24,8,8&tol=1e-3&entropy=1", ts.URL), raw)
	if res.StatusCode != 400 || !strings.Contains(string(body), "SPECK-AC") {
		t.Errorf("entropy=1: status %d %s, want 400 naming SPECK-AC", res.StatusCode, body)
	}
}

// A tolerance below a chunk's float64 resolution is refused, never served
// as a complete stream: when the first chunk is refused the status line
// is still unsent and the answer is a 400 naming both numbers; when a
// later chunk is refused after earlier frames went out, the 200 ends with
// an error trailer instead of "ok".
func TestCompressRefusesToleranceBelowResolution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const nx, ny, nz, tol = 128, 64, 32, 1e-12
	// One chunk of noise in [0, 1), which resolves tol (ulp(1) = 2^-52)
	// and codes to over 256 KiB, so its frame flushes the response; one of
	// 1e10*sin, whose spacing 2^-19 is far above tol.
	noise, big := field(nx/2, ny, nz, 3), make([]float64, nx/2*ny*nz)
	for i := range noise {
		noise[i] = math.Mod(noise[i]*1e6, 1)
		big[i] = 1e10 * math.Sin(0.37*float64(i))
	}
	volume := func(first, second []float64) []byte {
		data := make([]float64, 0, nx*ny*nz)
		for r := 0; r < ny*nz; r++ {
			data = append(data, first[r*nx/2:(r+1)*nx/2]...)
			data = append(data, second[r*nx/2:(r+1)*nx/2]...)
		}
		raw, _ := rawio.EncodeFloats(data, 8)
		return raw
	}
	url := fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=%g&chunk=%d,%d,%d&workers=1",
		ts.URL, nx, ny, nz, tol, nx/2, ny, nz)

	res, body := postRaw(t, url, volume(big, noise))
	if res.StatusCode != 400 || !strings.Contains(string(body), "tolerance 1e-12 is below 1.9073486328125e-06") {
		t.Errorf("first chunk refused: status %d %q, want 400 naming both numbers", res.StatusCode, body)
	}

	res, body = postRaw(t, url, volume(noise, big))
	status := res.Trailer.Get("X-Sperr-Status")
	if res.StatusCode != 200 || !strings.Contains(status, "tolerance 1e-12 is below") {
		t.Errorf("second chunk refused: status %d, trailer %q, want 200 with an error trailer", res.StatusCode, status)
	}
	if _, _, err := sperr.Decompress(body); err == nil {
		t.Error("the refused compression's body decodes as a complete stream")
	}
}

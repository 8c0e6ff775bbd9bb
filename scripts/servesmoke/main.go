// Command servesmoke is the `make serve-smoke` harness: it builds the
// sperrd binary, starts it on a kernel-assigned localhost port, round
// trips a small volume over HTTP (compress -> decompress, PWE bound
// verified), ingests the container into the content-addressed store and
// reads a region through the decoded cache twice (second read must be a
// hit with the chunk-decode counter flat), checks /metrics and /healthz,
// then sends SIGTERM and requires a clean graceful-shutdown exit. Exit
// status 0 means the daemon serves, caches, measures, and drains.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sperr/scripts/internal/smoke"
)

const (
	dimX, dimY, dimZ = 48, 33, 17
	tol              = 1e-4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "serve-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "sperrd-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "sperrd")

	fmt.Println("serve-smoke: building sperrd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}

	addrFile := filepath.Join(tmp, "addr")
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-budget-mb", "64",
		"-chunk", "16,16,16",
		"-store-dir", filepath.Join(tmp, "store"),
		"-cache-mb", "8",
		"-quiet")
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start sperrd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill()

	addr, err := waitAddr(addrFile, exited)
	if err != nil {
		return err
	}
	base := "http://" + addr
	fmt.Println("serve-smoke: daemon up at", base)

	if err := get(base+"/healthz", "ok"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// Round trip a synthetic volume.
	data := makeField()
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	curl := fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=%g", base, dimX, dimY, dimZ, tol)
	stream, err := post(curl, raw)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if len(stream) == 0 || len(stream) >= len(raw) {
		return fmt.Errorf("compress returned %d bytes for %d input bytes", len(stream), len(raw))
	}
	fmt.Printf("serve-smoke: compressed %d -> %d bytes (%.1fx)\n",
		len(raw), len(stream), float64(len(raw))/float64(len(stream)))

	recon, err := post(base+"/v1/decompress", stream)
	if err != nil {
		return fmt.Errorf("decompress: %w", err)
	}
	if len(recon) != len(raw) {
		return fmt.Errorf("decompress returned %d bytes, want %d", len(recon), len(raw))
	}
	worst := 0.0
	for i := range data {
		got := math.Float64frombits(binary.LittleEndian.Uint64(recon[i*8:]))
		if d := math.Abs(got - data[i]); d > worst {
			worst = d
		}
	}
	if worst > tol*(1+1e-9) {
		return fmt.Errorf("PWE bound violated over HTTP: max err %g > tol %g", worst, tol)
	}
	fmt.Printf("serve-smoke: round trip ok, max point-wise error %.3g (tol %g)\n", worst, tol)

	// Describe must answer JSON mentioning the geometry.
	desc, err := post(fmt.Sprintf("%s/v1/describe", base), stream)
	if err != nil {
		return fmt.Errorf("describe: %w", err)
	}
	if !bytes.Contains(desc, []byte(`"Mode": "pwe"`)) {
		return fmt.Errorf("describe response missing mode: %s", desc)
	}

	// Content-addressed serving: ingest the container, then read the same
	// region twice. The first read decodes and warms the cache; the repeat
	// must be a full hit that moves no decode work.
	id, err := smoke.Ingest(base, stream)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	fmt.Println("serve-smoke: ingested volume", id[:12])
	regionURL := fmt.Sprintf("%s/v1/volumes/%s/region?region=4,3,2,24,16,8", base, id)
	cold, err := smoke.GetRegion(regionURL)
	if err != nil {
		return fmt.Errorf("cold region: %w", err)
	}
	decodesAfterCold, err := metricValue(base, "sperrd_store_chunk_decodes_total")
	if err != nil {
		return err
	}
	warm, err := smoke.GetRegion(regionURL)
	if err != nil {
		return fmt.Errorf("warm region: %w", err)
	}
	decodesAfterWarm, err := metricValue(base, "sperrd_store_chunk_decodes_total")
	if err != nil {
		return err
	}
	if warm.Cache != "hit" {
		return fmt.Errorf("repeat region read was %q, want hit (first was %q)", warm.Cache, cold.Cache)
	}
	if decodesAfterWarm != decodesAfterCold {
		return fmt.Errorf("chunk decode counter moved %g -> %g across a cache hit",
			decodesAfterCold, decodesAfterWarm)
	}
	if !bytes.Equal(cold.Body, warm.Body) {
		return fmt.Errorf("cached region bytes differ from the decoded read")
	}
	if decodesAfterCold == 0 {
		return fmt.Errorf("cold region read decoded nothing")
	}
	hits, err := metricValue(base, "sperrd_cache_hits_total")
	if err != nil {
		return err
	}
	if hits == 0 {
		return fmt.Errorf("sperrd_cache_hits_total stayed zero after a hit")
	}
	fmt.Printf("serve-smoke: cached region ok (%s then %s, %g decodes, %g slab hits)\n",
		cold.Cache, warm.Cache, decodesAfterCold, hits)

	// Metrics must be non-empty and carry the request counters.
	mt, err := smoke.Scrape(base)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if !strings.Contains(mt, "sperrd_requests_total") ||
		!strings.Contains(mt, "sperrd_admission_inuse_samples") ||
		!strings.Contains(mt, "sperrd_cache_resident_samples") {
		return fmt.Errorf("/metrics missing expected series:\n%s", mt)
	}
	fmt.Printf("serve-smoke: /metrics ok (%d bytes)\n", len(mt))

	// Graceful shutdown: SIGTERM must drain and exit zero.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit within 15s of SIGTERM")
	}
	fmt.Println("serve-smoke: graceful shutdown ok")
	return nil
}

func makeField() []float64 {
	data := make([]float64, dimX*dimY*dimZ)
	for z := 0; z < dimZ; z++ {
		for y := 0; y < dimY; y++ {
			for x := 0; x < dimX; x++ {
				data[(z*dimY+y)*dimX+x] = math.Sin(0.17*float64(x)) *
					math.Cos(0.13*float64(y)) * (1 + 0.2*math.Sin(0.11*float64(z)))
			}
		}
	}
	return data
}

func waitAddr(path string, exited <-chan error) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-exited:
			return "", fmt.Errorf("daemon exited before listening: %v", err)
		default:
		}
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("daemon never wrote its address file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func get(url, want string) error {
	res, err := http.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	out, _ := io.ReadAll(res.Body)
	if res.StatusCode != 200 {
		return fmt.Errorf("status %d: %s", res.StatusCode, out)
	}
	if want != "" && !strings.Contains(string(out), want) {
		return fmt.Errorf("body %q missing %q", out, want)
	}
	return nil
}

// metricValue scrapes one series from /metrics; an absent or unparsable
// series is an error.
func metricValue(base, name string) (float64, error) {
	text, err := smoke.Scrape(base)
	if err != nil {
		return 0, err
	}
	return smoke.LookupMetric(text, name)
}

func post(url string, body []byte) ([]byte, error) {
	res, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != 200 {
		return nil, fmt.Errorf("status %d: %s", res.StatusCode, out)
	}
	if ts := res.Trailer.Get("X-Sperr-Status"); ts != "" && ts != "ok" {
		return nil, fmt.Errorf("stream trailer: %s", ts)
	}
	return out, nil
}

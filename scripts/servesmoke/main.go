// Command servesmoke is the `make serve-smoke` harness, the one check that
// forks real sperrd processes. It builds the binary and boots a three-peer
// cluster with two replicas per chunk, then checks what only a real
// process shows:
//
//  1. the flags: every peer boots from its command line and answers
//     /healthz;
//  2. one HTTP compress -> decompress round trip within tol;
//  3. the golden v3 fixture, ingested once, reads back in full through
//     every coordinator with an "ok" trailer and the bytes of
//     sperr.DecompressRegion;
//  4. SIGKILL of the primary owner of chunk 0 with four reads in flight
//     through another peer: every read, during and after the kill, is 200,
//     "ok" and bit-identical, sperrd_replica_failover_chunks_total records
//     the reroute and sperrd_cluster_degraded_total stays 0;
//  5. SIGTERM: each survivor drains and exits 0.
//
// Degradation, scrub healing and the single-node surfaces (salvage,
// caching, describe, metrics) are tested in-process in internal/server.
// Exit status 0 means the daemon boots, serves, fails over and drains.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/rawio"
	"sperr/scripts/internal/smoke"
)

const (
	dimX, dimY, dimZ = 48, 33, 17
	tol              = 1e-4
	replicas         = 2
	golden           = "testdata/golden_adaptive_48x32x32_v3.sperr"
)

var nodeIDs = []string{"node-a", "node-b", "node-c"}

func main() {
	start := time.Now()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "serve-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serve-smoke: OK in %v\n", time.Since(start).Round(time.Millisecond))
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

	// 1. Boot the cluster; the roster must be known before any peer boots.
	addrs, err := smoke.ReservePorts(len(nodeIDs))
	if err != nil {
		return err
	}
	roster := make([]string, len(nodeIDs))
	for i, id := range nodeIDs {
		roster[i] = id + "=http://" + addrs[i]
	}
	nodes := make([]*smoke.Node, len(nodeIDs))
	for i, id := range nodeIDs {
		n, err := smoke.StartNode(bin, id, addrs[i],
			"-store-dir", filepath.Join(tmp, "store-"+id),
			"-node-id", id,
			"-peers", strings.Join(roster, ","),
			"-replicas", fmt.Sprint(replicas),
			"-peer-timeout", "2s",
			"-chunk", "16,16,16",
			"-budget-mb", "64",
			"-cache-mb", "8",
			"-quiet")
		if err != nil {
			return err
		}
		nodes[i] = n
		defer n.Cmd.Process.Kill()
	}
	for _, n := range nodes {
		if err := smoke.WaitHealthy(n); err != nil {
			return err
		}
	}
	fmt.Printf("serve-smoke: %d peers up, %d replicas per chunk\n", len(nodes), replicas)

	// 2. One compress -> decompress round trip within tol.
	if err := roundTrip(nodes[0].URL); err != nil {
		return err
	}

	// 3. Ingest the golden once; read it in full through every coordinator.
	container, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	info, err := sperr.Describe(container)
	if err != nil {
		return err
	}
	want, err := sperr.DecompressRegion(container, [3]int{}, info.Dims)
	if err != nil {
		return err
	}
	wantRaw, err := rawio.EncodeFloats(want, 8)
	if err != nil {
		return err
	}
	id, err := smoke.Ingest(nodes[0].URL, container)
	if err != nil {
		return err
	}
	read := func(n *smoke.Node) error {
		url := fmt.Sprintf("%s/v1/volumes/%s/region?region=0,0,0,%d,%d,%d",
			n.URL, id, info.Dims[0], info.Dims[1], info.Dims[2])
		r, err := smoke.Do("GET", url, nil)
		switch {
		case err != nil:
			return fmt.Errorf("read via %s: %w", n.ID, err)
		case r.Status != "ok":
			return fmt.Errorf("read via %s: no ok trailer", n.ID)
		case !bytes.Equal(r.Body, wantRaw):
			return fmt.Errorf("read via %s: bytes differ from sperr.DecompressRegion", n.ID)
		}
		return nil
	}
	for _, n := range nodes {
		if err := read(n); err != nil {
			return err
		}
	}
	fmt.Printf("serve-smoke: %s (%d chunks) reads bit-identical through all %d coordinators\n",
		filepath.Base(golden), info.NumChunks, len(nodes))

	// 4. SIGKILL the primary of chunk 0 with four reads in flight through
	// another peer; placement is a pure function of roster and address.
	ring, err := cluster.NewRing(nodeIDs)
	if err != nil {
		return err
	}
	primary := ring.Owners(cluster.ChunkKey(id, 0), replicas)[0]
	victim := 0
	for nodes[victim].ID != primary {
		victim++
	}
	coord := nodes[(victim+1)%len(nodes)]
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); errs <- read(coord) }()
	}
	time.Sleep(10 * time.Millisecond)
	if err := nodes[victim].Cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill %s: %w", primary, err)
	}
	<-nodes[victim].Done
	wg.Wait()
	errs <- read(coord)
	close(errs)
	for err := range errs {
		if err != nil {
			return fmt.Errorf("after SIGKILL of %s: %w", primary, err)
		}
	}
	failover, err := smoke.Metric(coord.URL, "sperrd_replica_failover_chunks_total")
	if err != nil {
		return err
	}
	degraded, err := smoke.Metric(coord.URL, "sperrd_cluster_degraded_total")
	if err != nil {
		return err
	}
	if failover < 1 || degraded != 0 {
		return fmt.Errorf("%s: %g chunks failed over (want >= 1), %g reads degraded (want 0)",
			coord.ID, failover, degraded)
	}
	fmt.Printf("serve-smoke: SIGKILL %s mid-read: 5 reads via %s ok and bit-identical, %g chunks failed over, in %v\n",
		primary, coord.ID, failover, time.Since(t0).Round(time.Millisecond))

	// 5. The survivors drain on SIGTERM and exit 0.
	for i, n := range nodes {
		if i == victim {
			continue
		}
		if err := smoke.Drain(n); err != nil {
			return err
		}
	}
	fmt.Println("serve-smoke: survivors drained, exit 0")
	return nil
}

// roundTrip compresses a smooth field over HTTP, decompresses the stream
// and requires every sample within tol.
func roundTrip(base string) error {
	raw := make([]byte, dimX*dimY*dimZ*8)
	data := make([]float64, dimX*dimY*dimZ)
	for i := range data {
		x, y, z := i%dimX, i/dimX%dimY, i/(dimX*dimY)
		data[i] = math.Sin(0.17*float64(x)) * math.Cos(0.13*float64(y)) * (1 + 0.2*math.Sin(0.11*float64(z)))
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(data[i]))
	}
	stream, err := smoke.Do("POST", fmt.Sprintf("%s/v1/compress?dims=%d,%d,%d&tol=%g", base, dimX, dimY, dimZ, tol), raw)
	if err != nil {
		return err
	}
	if len(stream.Body) == 0 || len(stream.Body) >= len(raw) {
		return fmt.Errorf("compress returned %d bytes for %d input bytes", len(stream.Body), len(raw))
	}
	recon, err := smoke.Do("POST", base+"/v1/decompress", stream.Body)
	if err != nil {
		return err
	}
	if len(recon.Body) != len(raw) {
		return fmt.Errorf("decompress returned %d bytes, want %d", len(recon.Body), len(raw))
	}
	worst := 0.0
	for i, v := range data {
		worst = math.Max(worst, math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(recon.Body[i*8:]))-v))
	}
	if !(worst <= tol) { // a NaN sample fails too
		return fmt.Errorf("round trip: max point-wise error %g > tol %g", worst, tol)
	}
	fmt.Printf("serve-smoke: round trip %d -> %d bytes, max point-wise error %.3g (tol %g)\n",
		len(raw), len(stream.Body), worst, tol)
	return nil
}

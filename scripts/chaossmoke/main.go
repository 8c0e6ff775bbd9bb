// Command chaossmoke is the `make chaos-smoke` harness: the replication
// and self-healing counterpart to clustersmoke. It builds sperrd, boots
// a three-node cluster with -replicas=2 and a fast anti-entropy
// scrubber, ingests the golden v3 fixture, then runs three acts:
//
//  1. Failover: SIGKILL a peer that primary-owns chunks while reads are
//     in flight, and require every read — during and after the kill —
//     to answer 200 with an "ok" trailer (NOT degraded) and bytes
//     bit-identical to a single-node in-process decode, with
//     sperrd_replica_failover_chunks_total recording the reroute.
//  2. Rejoin: restart the victim as a replacement peer with an empty
//     store and require its scrubber to converge to full ownership of
//     its ring share without any operator action.
//  3. Bit-rot: corrupt a shard blob on a live peer's disk and require
//     that peer's scrubber to detect and repair it within a deadline —
//     without any client read touching the volume in between — with
//     sperrd_scrub_damaged_chunks_total / _repaired_chunks_total as
//     witnesses, then require full-volume reads through every
//     coordinator to come back non-degraded and bit-identical.
//
// The harness prints each act's convergence time; exit status 0 means
// the cluster replicates, fails over, rejoins, and heals.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/rawio"
	"sperr/scripts/internal/smoke"
)

var nodeIDs = []string{"node-a", "node-b", "node-c"}

const (
	replicas      = 2
	scrubEvery    = 300 * time.Millisecond
	scrubDeadline = 30 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("chaos-smoke: OK")
}

// startNode forks a peer of the replicated, fast-scrubbing cluster this
// harness exercises.
func startNode(bin, storeDir, id, addr, peers string) (*smoke.Node, error) {
	return smoke.StartNode(bin, id, addr, storeDir, peers,
		"-replicas", fmt.Sprint(replicas),
		"-scrub-interval", scrubEvery.String())
}

func run() error {
	tmp, err := os.MkdirTemp("", "sperrd-chaos-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "sperrd")

	fmt.Println("chaos-smoke: building sperrd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}

	addrs, err := smoke.ReservePorts(len(nodeIDs))
	if err != nil {
		return err
	}
	roster := make([]string, len(nodeIDs))
	for i, id := range nodeIDs {
		roster[i] = fmt.Sprintf("%s=http://%s", id, addrs[i])
	}
	peersFlag := strings.Join(roster, ",")

	nodes := make([]*smoke.Node, len(nodeIDs))
	for i, id := range nodeIDs {
		n, err := startNode(bin, filepath.Join(tmp, "store-"+id), id, addrs[i], peersFlag)
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
	fmt.Printf("chaos-smoke: %d peers up with %d replicas per chunk (%s)\n",
		len(nodes), replicas, peersFlag)

	container, err := os.ReadFile("testdata/golden_adaptive_48x32x32_v3.sperr")
	if err != nil {
		return fmt.Errorf("read fixture: %w", err)
	}
	info, err := sperr.Describe(container)
	if err != nil {
		return err
	}
	id, err := smoke.Ingest(nodes[0].URL, container)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	want, err := sperr.DecompressRegion(container, [3]int{0, 0, 0}, info.Dims)
	if err != nil {
		return err
	}
	wantRaw, err := rawio.EncodeFloats(want, 8)
	if err != nil {
		return err
	}
	fmt.Printf("chaos-smoke: ingested %s.. (%d chunks)\n", id[:12], info.NumChunks)

	// The placement ring is a pure function of roster + content address,
	// so the harness can compute every chunk's replica set exactly as
	// the daemons do.
	ring, err := cluster.NewRing(nodeIDs)
	if err != nil {
		return err
	}
	desired := func(peer string) []int {
		var out []int
		for ci := 0; ci < info.NumChunks; ci++ {
			for _, p := range ring.Owners(cluster.ChunkKey(id, ci), replicas) {
				if p == peer {
					out = append(out, ci)
				}
			}
		}
		return out
	}
	for ci := 0; ci < info.NumChunks; ci++ {
		owners := ring.Owners(cluster.ChunkKey(id, ci), replicas)
		if len(owners) != replicas {
			return fmt.Errorf("chunk %d has %d owners, want %d", ci, len(owners), replicas)
		}
	}

	// ---- Act 1: SIGKILL a primary owner mid-read; reads must not degrade.
	victim := -1
	for i := 1; i < len(nodes) && victim < 0; i++ { // never the coordinator
		for ci := 0; ci < info.NumChunks; ci++ {
			if ring.Owners(cluster.ChunkKey(id, ci), replicas)[0] == nodes[i].ID {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		return fmt.Errorf("placement put every primary on the coordinator")
	}
	regionURL := fmt.Sprintf("%s/v1/volumes/%s/region?region=0,0,0,%d,%d,%d",
		nodes[0].URL, id, info.Dims[0], info.Dims[1], info.Dims[2])

	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- checkRead(regionURL, wantRaw, fmt.Sprintf("in-flight read %d", g))
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	fmt.Printf("chaos-smoke: SIGKILL %s (primary for some chunks) with 4 reads in flight\n",
		nodes[victim].ID)
	if err := nodes[victim].Cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill %s: %w", nodes[victim].ID, err)
	}
	<-nodes[victim].Done
	wg.Wait()
	errs <- checkRead(regionURL, wantRaw, "post-kill read")
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	metrics, err := smoke.Scrape(nodes[0].URL)
	if err != nil {
		return err
	}
	if v := smoke.MetricValue(metrics, "sperrd_replica_failover_chunks_total"); v < 1 {
		return fmt.Errorf("sperrd_replica_failover_chunks_total is %g, want >= 1", v)
	}
	if v := smoke.MetricValue(metrics, "sperrd_cluster_degraded_total"); v != 0 {
		return fmt.Errorf("sperrd_cluster_degraded_total is %g after failover, want 0", v)
	}
	fmt.Printf("chaos-smoke: failover ok in %v (reads 200, trailer ok, bit-identical, %g chunks rerouted)\n",
		time.Since(t0).Round(time.Millisecond),
		smoke.MetricValue(metrics, "sperrd_replica_failover_chunks_total"))

	// ---- Act 2: the victim rejoins as a replacement peer with an empty
	// store; its scrubber must converge to full ring ownership.
	t0 = time.Now()
	rejoined, err := startNode(bin, filepath.Join(tmp, "store-"+nodes[victim].ID+"-rejoin"),
		nodes[victim].ID, nodes[victim].Addr, peersFlag)
	if err != nil {
		return fmt.Errorf("restart %s: %w", nodes[victim].ID, err)
	}
	nodes[victim] = rejoined
	defer rejoined.Cmd.Process.Kill()
	if err := smoke.WaitHealthy(rejoined); err != nil {
		return err
	}
	wantOwned := desired(rejoined.ID)
	if err := waitOwned(rejoined, id, wantOwned); err != nil {
		return fmt.Errorf("rejoin did not converge: %w", err)
	}
	fmt.Printf("chaos-smoke: replacement peer %s converged to %d owned chunks in %v\n",
		rejoined.ID, len(wantOwned), time.Since(t0).Round(time.Millisecond))

	// ---- Act 3: corrupt a shard blob on a live peer's disk; its
	// scrubber must detect and heal it with no client read in between.
	target := nodes[1]
	if victim == 1 {
		target = nodes[2]
	}
	before, err := smoke.Scrape(target.URL)
	if err != nil {
		return err
	}
	d0 := smoke.MetricValue(before, "sperrd_scrub_damaged_chunks_total")
	r0 := smoke.MetricValue(before, "sperrd_scrub_repaired_chunks_total")
	if smoke.MetricValue(before, "sperrd_scrub_runs_total") < 1 {
		return fmt.Errorf("%s scrubber has not run (sperrd_scrub_runs_total 0)", target.ID)
	}

	blobPath := filepath.Join(target.StoreDir, "volumes", id+".sperr")
	lost, err := corruptOwnedFrame(blobPath)
	if err != nil {
		return fmt.Errorf("corrupt %s shard: %w", target.ID, err)
	}
	fmt.Printf("chaos-smoke: flipped bytes in %s's shard blob (chunks %v now fail CRC)\n",
		target.ID, lost)

	t0 = time.Now()
	deadline := time.Now().Add(scrubDeadline)
	for {
		m, err := smoke.Scrape(target.URL)
		if err != nil {
			return err
		}
		if smoke.MetricValue(m, "sperrd_scrub_damaged_chunks_total") > d0 &&
			smoke.MetricValue(m, "sperrd_scrub_repaired_chunks_total") >= r0+float64(len(lost)) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scrubber did not heal within %v (damaged %g->%g, repaired %g->%g)",
				scrubDeadline, d0, smoke.MetricValue(m, "sperrd_scrub_damaged_chunks_total"),
				r0, smoke.MetricValue(m, "sperrd_scrub_repaired_chunks_total"))
		}
		time.Sleep(25 * time.Millisecond)
	}
	conv := time.Since(t0).Round(time.Millisecond)
	if err := waitOwned(target, id, desired(target.ID)); err != nil {
		return fmt.Errorf("healed shard still missing chunks: %w", err)
	}
	fmt.Printf("chaos-smoke: scrub convergence time %v (%d chunks re-fetched from replicas, no client read involved)\n",
		conv, len(lost))

	// After healing, every coordinator must serve the full volume
	// non-degraded and bit-identical.
	for _, n := range nodes {
		url := fmt.Sprintf("%s/v1/volumes/%s/region?region=0,0,0,%d,%d,%d",
			n.URL, id, info.Dims[0], info.Dims[1], info.Dims[2])
		if err := checkRead(url, wantRaw, "post-heal read via "+n.ID); err != nil {
			return err
		}
	}
	fmt.Println("chaos-smoke: post-heal reads bit-identical through all coordinators")

	// Everyone drains cleanly.
	for _, n := range nodes {
		if err := smoke.Drain(n); err != nil {
			return err
		}
	}
	fmt.Println("chaos-smoke: graceful shutdown ok")
	return nil
}

// checkRead fetches a region and requires 200 + "ok" trailer + bytes
// identical to the reference decode.
func checkRead(url string, wantRaw []byte, what string) error {
	reg, err := smoke.GetRegion(url)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if reg.Status != "ok" {
		return fmt.Errorf("%s: trailer %q, want ok (read must not degrade)", what, reg.Status)
	}
	if !bytes.Equal(reg.Body, wantRaw) {
		return fmt.Errorf("%s: bytes differ from single-node decode", what)
	}
	return nil
}

// waitOwned polls a node's shard blob on disk until it holds (at least)
// every chunk the ring assigns that node.
func waitOwned(n *smoke.Node, id string, want []int) error {
	blobPath := filepath.Join(n.StoreDir, "volumes", id+".sperr")
	deadline := time.Now().Add(scrubDeadline)
	for {
		blob, err := os.ReadFile(blobPath)
		if err == nil {
			owned, oerr := sperr.OwnedChunks(blob)
			if oerr == nil && containsAll(owned, want) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			blob, _ := os.ReadFile(blobPath)
			owned, _ := sperr.OwnedChunks(blob)
			return fmt.Errorf("%s owns %v after %v, want ⊇ %v", n.ID, owned, scrubDeadline, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// corruptOwnedFrame flips two bytes inside the blob so that at least one
// previously-intact chunk frame fails its CRC, and returns the chunks
// lost. The write is tmp+rename so the daemon never sees a torn file.
func corruptOwnedFrame(path string) ([]int, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	before, err := sperr.OwnedChunks(blob)
	if err != nil {
		return nil, err
	}
	if len(before) == 0 {
		return nil, fmt.Errorf("shard owns no chunks to corrupt")
	}
	for off := 40; off+2 < len(blob)-8; off += 64 {
		mod := append([]byte(nil), blob...)
		mod[off] ^= 0xff
		mod[off+1] ^= 0xff
		after, err := sperr.OwnedChunks(mod)
		if err != nil || len(after) < len(before) {
			lost := diffSorted(before, after)
			tmp := path + ".chaos"
			if err := os.WriteFile(tmp, mod, 0o644); err != nil {
				return nil, err
			}
			return lost, os.Rename(tmp, path)
		}
	}
	return nil, fmt.Errorf("no byte flip unseated a chunk frame")
}

func diffSorted(before, after []int) []int {
	in := make(map[int]bool, len(after))
	for _, ci := range after {
		in[ci] = true
	}
	var out []int
	for _, ci := range before {
		if !in[ci] {
			out = append(out, ci)
		}
	}
	sort.Ints(out)
	return out
}

func containsAll(have, want []int) bool {
	in := make(map[int]bool, len(have))
	for _, ci := range have {
		in[ci] = true
	}
	for _, ci := range want {
		if !in[ci] {
			return false
		}
	}
	return true
}

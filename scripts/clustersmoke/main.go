// Command clustersmoke is the `make cluster-smoke` harness: it builds
// the sperrd binary, boots a three-node cluster on kernel-assigned
// localhost ports, ingests both golden fixtures (container v2 and v3)
// through different coordinators, reads cross-shard regions through
// every node and requires the bytes to be bit-identical to a
// single-node in-process decode, then SIGKILLs one peer mid-cluster and
// requires the next read to degrade (200 + fill value + "degraded"
// status trailer) instead of failing, with the cluster counters on
// /metrics recording the casualty. Exit status 0 means the cluster
// shards, gathers, degrades, and measures.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/rawio"
	"sperr/scripts/internal/smoke"
)

var nodeIDs = []string{"node-a", "node-b", "node-c"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cluster-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("cluster-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "sperrd-cluster-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "sperrd")

	fmt.Println("cluster-smoke: building sperrd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}

	// The roster must be known before any peer boots, so reserve three
	// kernel-assigned ports up front and release them just before use.
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
		// This smoke pins the single-replica degradation contract; the
		// replicated failover path has its own harness (chaossmoke).
		n, err := smoke.StartNode(bin, id, addrs[i], filepath.Join(tmp, "store-"+id), peersFlag,
			"-replicas", "1", "-scrub-interval", "-1s")
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
	fmt.Printf("cluster-smoke: %d peers up (%s)\n", len(nodes), peersFlag)

	// Ingest both golden fixtures — a v2 PWE container and a v3 adaptive
	// container — through different coordinators, and read cross-shard
	// regions back through every node. Each read must match an
	// in-process single-node decode byte for byte.
	fixtures := []struct {
		path        string
		coordinator int
	}{
		{"testdata/golden_pwe_24x17x9_v2.sperr", 0},
		{"testdata/golden_adaptive_48x32x32_v3.sperr", 1},
	}
	var v3id string
	var v3info *sperr.StreamInfo
	for _, fx := range fixtures {
		container, err := os.ReadFile(fx.path)
		if err != nil {
			return fmt.Errorf("read fixture: %w", err)
		}
		info, err := sperr.Describe(container)
		if err != nil {
			return fmt.Errorf("describe %s: %w", fx.path, err)
		}
		id, err := smoke.Ingest(nodes[fx.coordinator].URL, container)
		if err != nil {
			return fmt.Errorf("ingest %s via %s: %w", fx.path, nodes[fx.coordinator].ID, err)
		}
		fmt.Printf("cluster-smoke: ingested %s as %s.. via %s (%d chunks)\n",
			filepath.Base(fx.path), id[:12], nodes[fx.coordinator].ID, info.NumChunks)
		if strings.Contains(fx.path, "_v3") {
			v3id, v3info = id, info
		}

		// Two regions per fixture: the full volume (touches every chunk,
		// so certainly cross-shard) and an interior box straddling chunk
		// boundaries on every axis.
		regions := [][2][3]int{
			{{0, 0, 0}, info.Dims},
			{{1, 2, 3}, {info.Dims[0] - 2, info.Dims[1] - 4, info.Dims[2] - 4}},
		}
		for _, reg := range regions {
			origin, dims := reg[0], reg[1]
			want, err := sperr.DecompressRegion(container, origin, dims)
			if err != nil {
				return fmt.Errorf("reference decode: %w", err)
			}
			wantRaw, err := rawio.EncodeFloats(want, 8)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				url := fmt.Sprintf("%s/v1/volumes/%s/region?region=%d,%d,%d,%d,%d,%d",
					n.URL, id, origin[0], origin[1], origin[2], dims[0], dims[1], dims[2])
				reg, err := smoke.GetRegion(url)
				if err != nil {
					return fmt.Errorf("region via %s: %w", n.ID, err)
				}
				if reg.Status != "ok" {
					return fmt.Errorf("region via %s: trailer %q, want ok", n.ID, reg.Status)
				}
				if reg.Node != n.ID {
					return fmt.Errorf("region via %s: X-Sperr-Node says %q", n.ID, reg.Node)
				}
				if !bytes.Equal(reg.Body, wantRaw) {
					return fmt.Errorf("region %v+%v via %s: %d bytes differ from single-node decode",
						origin, dims, n.ID, len(reg.Body))
				}
			}
		}
		fmt.Printf("cluster-smoke: %s reads bit-identical through all %d coordinators\n",
			filepath.Base(fx.path), len(nodes))
	}

	// Every coordinator has done remote fetches by now; its per-peer
	// request counters must show them.
	metrics, err := smoke.Scrape(nodes[0].URL)
	if err != nil {
		return err
	}
	for _, peer := range nodeIDs[1:] {
		series := fmt.Sprintf(`sperrd_cluster_requests_total{peer="%s",outcome="ok"}`, peer)
		if !strings.Contains(metrics, series) {
			return fmt.Errorf("node-a /metrics missing %s", series)
		}
	}

	// Kill one peer with SIGKILL — no drain, no goodbye — and require
	// the next cross-shard read to degrade instead of erroring. The
	// victim is a non-coordinator owner of at least one v3 chunk,
	// computed from the same ring the daemons use (placement is a pure
	// function of roster + content address).
	ring, err := cluster.NewRing(nodeIDs, 0)
	if err != nil {
		return err
	}
	placement := ring.Placement(v3id, v3info.NumChunks)
	victim := -1
	for i := 1; i < len(nodes); i++ { // never the coordinator we read through
		if len(placement[nodes[i].ID]) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("no non-coordinator peer owns v3 chunks (placement %v)", placement)
	}
	lost := placement[nodes[victim].ID]
	fmt.Printf("cluster-smoke: SIGKILL %s (owns v3 chunks %v)\n", nodes[victim].ID, lost)
	if err := nodes[victim].Cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill %s: %w", nodes[victim].ID, err)
	}
	<-nodes[victim].Done

	url := fmt.Sprintf("%s/v1/volumes/%s/region?region=0,0,0,%d,%d,%d",
		nodes[0].URL, v3id, v3info.Dims[0], v3info.Dims[1], v3info.Dims[2])
	reg, err := smoke.GetRegion(url)
	if err != nil {
		return fmt.Errorf("degraded read must not fail: %w", err)
	}
	got, trailer := reg.Body, reg.Status
	if !strings.HasPrefix(trailer, "degraded: skipped ") {
		return fmt.Errorf("post-kill read trailer %q, want degraded status", trailer)
	}
	skipped := parseSkipped(trailer)
	if len(skipped) == 0 {
		return fmt.Errorf("degraded trailer names no chunks: %q", trailer)
	}
	for _, ci := range skipped {
		if !contains(lost, ci) {
			return fmt.Errorf("skipped chunk %d is not owned by the killed peer (owns %v)", ci, lost)
		}
	}

	// The fill policy marks lost cells NaN; cells of surviving chunks
	// must still match the reference decode exactly.
	container, err := os.ReadFile(fixtures[1].path)
	if err != nil {
		return err
	}
	want, err := sperr.DecompressRegion(container, [3]int{0, 0, 0}, v3info.Dims)
	if err != nil {
		return err
	}
	nans, mismatches := 0, 0
	for i := range want {
		v := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
		inLost := contains(skipped, chunkIndexOf(i, v3info.Dims, v3info.ChunkDims))
		switch {
		case inLost && math.IsNaN(v):
			nans++
		case inLost:
			return fmt.Errorf("sample %d in a skipped chunk is %v, want NaN", i, v)
		case v != want[i]:
			mismatches++
		}
	}
	if nans == 0 {
		return fmt.Errorf("degraded read filled no samples")
	}
	if mismatches > 0 {
		return fmt.Errorf("%d surviving samples differ from the single-node decode", mismatches)
	}
	fmt.Printf("cluster-smoke: degraded read ok (%d chunks skipped, %d samples NaN-filled, survivors bit-identical)\n",
		len(skipped), nans)

	// The casualty must be visible on the coordinator's metrics surface.
	metrics, err = smoke.Scrape(nodes[0].URL)
	if err != nil {
		return err
	}
	if v := smoke.MetricValue(metrics, "sperrd_cluster_degraded_total"); v < 1 {
		return fmt.Errorf("sperrd_cluster_degraded_total is %g, want >= 1", v)
	}
	if v := smoke.MetricValue(metrics, "sperrd_cluster_filled_chunks_total"); v < float64(len(skipped)) {
		return fmt.Errorf("sperrd_cluster_filled_chunks_total is %g, want >= %d", v, len(skipped))
	}
	failSeries := []string{
		fmt.Sprintf(`sperrd_cluster_requests_total{peer="%s",outcome="error"}`, nodes[victim].ID),
		fmt.Sprintf(`sperrd_cluster_requests_total{peer="%s",outcome="timeout"}`, nodes[victim].ID),
	}
	if !strings.Contains(metrics, failSeries[0]) && !strings.Contains(metrics, failSeries[1]) {
		return fmt.Errorf("/metrics missing a failed-peer outcome counter for %s", nodes[victim].ID)
	}
	fmt.Println("cluster-smoke: cluster counters account for the killed peer")

	// The survivors drain cleanly.
	for i, n := range nodes {
		if i == victim {
			continue
		}
		if err := smoke.Drain(n); err != nil {
			return err
		}
	}
	fmt.Println("cluster-smoke: graceful shutdown ok")
	return nil
}

// parseSkipped pulls the chunk indices out of a
// "degraded: skipped 3,7,12" trailer.
func parseSkipped(trailer string) []int {
	list := strings.TrimPrefix(trailer, "degraded: skipped ")
	// A "; unreachable <peers>" suffix may name the dead peers.
	if i := strings.IndexByte(list, ';'); i >= 0 {
		list = list[:i]
	}
	var out []int
	for _, f := range strings.Split(list, ",") {
		var ci int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &ci); err == nil {
			out = append(out, ci)
		}
	}
	sort.Ints(out)
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// chunkIndexOf maps a row-major sample index of the full volume to its
// chunk index in the engine's z-major chunk grid.
func chunkIndexOf(i int, dims, chunkDims [3]int) int {
	x := i % dims[0]
	y := i / dims[0] % dims[1]
	z := i / (dims[0] * dims[1])
	nxc := (dims[0] + chunkDims[0] - 1) / chunkDims[0]
	nyc := (dims[1] + chunkDims[1] - 1) / chunkDims[1]
	return (z/chunkDims[2]*nyc+y/chunkDims[1])*nxc + x/chunkDims[0]
}

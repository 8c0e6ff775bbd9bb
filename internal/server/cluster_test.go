package server

// 3-node cluster e2e: real sperrd instances on real sockets, sharded
// ingest, scatter-gather reads pinned bit-identical to the single-node
// decode path, and peer-death degradation pinned to the fill policy
// (200 + degraded trailer, never a 500).

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sperr"
	"sperr/internal/rawio"
)

type clusterNode struct {
	id  string
	s   *Server
	ts  *httptest.Server
	url string
}

// newClusterNodes boots n sperrd instances wired into one roster. The
// listeners are created before the servers so every node's config can
// name every peer's URL.
func newClusterNodes(t testing.TB, n int, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	var roster []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		roster = append(roster, fmt.Sprintf("node-%c=http://%s", 'a'+i, ln.Addr()))
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{
			StoreDir:    t.TempDir(),
			NodeID:      fmt.Sprintf("node-%c", 'a'+i),
			Peers:       roster,
			PeerTimeout: 5 * time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		nodes[i] = &clusterNode{id: cfg.NodeID, s: s, ts: ts, url: ts.URL}
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
	}
	return nodes
}

// clusterFixtures: the v2 and v3 goldens.
var clusterFixtures = []struct{ name, path string }{
	{"v2", "../../testdata/golden_pwe_24x17x9_v2.sperr"},
	{"v3", "../../testdata/golden_adaptive_48x32x32_v3.sperr"},
}

func getClusterRegion(t *testing.T, node *clusterNode, id, spec, extra string) (*http.Response, []byte) {
	t.Helper()
	return do(t, "GET", node.url+"/v1/volumes/"+id+"/region?region="+spec+extra, nil)
}

// TestClusterGoldenBitIdentical is the acceptance pin: a 3-node
// scatter-gather region read returns byte-for-byte what the single-node
// decode returns, on both golden fixtures, from every coordinator.
func TestClusterGoldenBitIdentical(t *testing.T) {
	nodes := newClusterNodes(t, 3, nil)
	for _, fx := range clusterFixtures {
		t.Run(fx.name, func(t *testing.T) {
			container := readFixture(t, fx.path)
			info, err := sperr.Describe(container)
			if err != nil {
				t.Fatal(err)
			}
			id := ingest(t, nodes[0].ts, container, http.StatusCreated)
			// Idempotent re-ingest through a different coordinator.
			if got := ingest(t, nodes[1].ts, container, http.StatusOK); got != id {
				t.Fatalf("re-ingest address %s != %s", got, id)
			}

			d := info.Dims
			regions := []struct{ o, rd [3]int }{
				{[3]int{0, 0, 0}, d}, // full volume
				{[3]int{d[0]/2 - 3, d[1]/2 - 3, d[2]/2 - 1}, [3]int{7, 6, 3}}, // cross-shard straddle
				{[3]int{d[0] - 1, d[1] - 1, d[2] - 1}, [3]int{1, 1, 1}},       // last voxel
			}
			for _, rg := range regions {
				want, err := sperr.DecompressRegionWorkers(container, rg.o, rg.rd, 2)
				if err != nil {
					t.Fatal(err)
				}
				wantRaw, err := rawio.EncodeFloats(want, 8)
				if err != nil {
					t.Fatal(err)
				}
				spec := fmt.Sprintf("%d,%d,%d,%d,%d,%d", rg.o[0], rg.o[1], rg.o[2], rg.rd[0], rg.rd[1], rg.rd[2])
				for _, node := range nodes {
					res, body := getClusterRegion(t, node, id, spec, "&workers=2")
					if res.StatusCode != http.StatusOK {
						t.Fatalf("node %s region %s: %d (%s)", node.id, spec, res.StatusCode, body)
					}
					if got := res.Header.Get("X-Sperr-Node"); got != node.id {
						t.Fatalf("X-Sperr-Node %q, want %q", got, node.id)
					}
					if tr := res.Trailer.Get("X-Sperr-Status"); tr != "ok" {
						t.Fatalf("node %s region %s trailer %q, want ok", node.id, spec, tr)
					}
					if string(body) != string(wantRaw) {
						t.Fatalf("node %s region %s: cluster bytes differ from single-node decode", node.id, spec)
					}
				}
			}

			// Every node holds a shard describing the full geometry, and
			// the per-peer request counters are visible on the coordinator.
			for _, node := range nodes {
				meta, ok := node.s.Store().Describe(id)
				if !ok {
					t.Fatalf("node %s has no shard", node.id)
				}
				if meta.NumChunks != info.NumChunks || meta.Owned == nil {
					t.Fatalf("node %s shard: chunks=%d owned=%v", node.id, meta.NumChunks, meta.Owned)
				}
			}
			res, metrics := do(t, "GET", nodes[0].url+"/metrics", nil)
			if res.StatusCode != http.StatusOK {
				t.Fatalf("metrics: %d", res.StatusCode)
			}
			if !strings.Contains(string(metrics), `sperrd_cluster_requests_total{peer="node-b",outcome="ok"}`) &&
				!strings.Contains(string(metrics), `sperrd_cluster_requests_total{peer="node-c",outcome="ok"}`) {
				t.Fatal("metrics missing per-peer cluster request counters")
			}
		})
	}
}

// TestClusterOddDimsStraddle pins scatter-gather merging on regions
// straddling chunk boundaries of an odd-dimension volume, in both f64
// and f32 widths.
func TestClusterOddDimsStraddle(t *testing.T) {
	dims := [3]int{21, 13, 7}
	field := make([]float64, dims[0]*dims[1]*dims[2])
	for i := range field {
		field[i] = math.Sin(0.05*float64(i)) + 0.25*math.Cos(0.23*float64(i))
	}
	container, _, err := sperr.CompressPWE(field, dims, 1e-3,
		&sperr.Options{ChunkDims: [3]int{8, 8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := newClusterNodes(t, 3, nil)
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)

	regions := []struct{ o, rd [3]int }{
		{[3]int{7, 7, 3}, [3]int{2, 2, 2}},  // corner of 8 chunks
		{[3]int{5, 6, 2}, [3]int{11, 5, 4}}, // straddles x, y, z boundaries
		{[3]int{16, 8, 4}, [3]int{5, 5, 3}}, // odd tail chunks
		{[3]int{0, 0, 0}, dims},             // everything
	}
	for _, rg := range regions {
		want, err := sperr.DecompressRegionWorkers(container, rg.o, rg.rd, 1)
		if err != nil {
			t.Fatal(err)
		}
		spec := fmt.Sprintf("%d,%d,%d,%d,%d,%d", rg.o[0], rg.o[1], rg.o[2], rg.rd[0], rg.rd[1], rg.rd[2])
		for _, width := range []int{8, 4} {
			wantRaw, err := rawio.EncodeFloats(want, width)
			if err != nil {
				t.Fatal(err)
			}
			extra := "&workers=2"
			if width == 4 {
				extra += "&f32=1"
			}
			for _, node := range nodes {
				res, body := getClusterRegion(t, node, id, spec, extra)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("node %s region %s w%d: %d (%s)", node.id, spec, width, res.StatusCode, body)
				}
				if string(body) != string(wantRaw) {
					t.Fatalf("node %s region %s width %d: bytes differ from single-node path", node.id, spec, width)
				}
			}
		}
	}
}

// TestClusterPeerDeathDegrades is the fault acceptance pin: with a
// single replica per chunk, killing an owning peer mid-service yields a
// 200 with the salvage fill policy and the degraded trailer — never a
// 500 — and the loss is visible in the cluster metrics. (With the
// default 2 replicas the same fault is absorbed undegraded; see
// TestClusterFailoverSurvivesPeerDeath.)
func TestClusterPeerDeathDegrades(t *testing.T) {
	nodes := newClusterNodes(t, 3, func(i int, cfg *Config) {
		cfg.PeerTimeout = 500 * time.Millisecond
		cfg.Replicas = 1
	})
	container := readFixture(t, "../../testdata/golden_adaptive_48x32x32_v3.sperr")
	info, err := sperr.Describe(container)
	if err != nil {
		t.Fatal(err)
	}
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)

	// Pick a victim that owns at least one chunk and is not the
	// coordinator (node 0).
	cl := nodes[0].s.Cluster()
	victim := -1
	victimChunks := make(map[int]bool)
	for ci := 0; ci < info.NumChunks; ci++ {
		owner := cl.Owner(id, ci)
		for i := 1; i < len(nodes); i++ {
			if owner == nodes[i].id {
				if victim < 0 {
					victim = i
				}
				if victim == i {
					victimChunks[ci] = true
				}
			}
		}
	}
	if victim < 0 {
		t.Fatalf("placement left nothing on remote peers (owned: %v)", victimChunks)
	}
	nodes[victim].ts.Close() // SIGKILL-equivalent: connections refused from here on

	spec := fmt.Sprintf("0,0,0,%d,%d,%d", info.Dims[0], info.Dims[1], info.Dims[2])
	res, body := getClusterRegion(t, nodes[0], id, spec, "&workers=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("degraded read answered %d, want 200 (never a 5xx): %s", res.StatusCode, body)
	}
	tr := res.Trailer.Get("X-Sperr-Status")
	if !strings.HasPrefix(tr, "degraded: skipped ") {
		t.Fatalf("trailer %q, want degraded: skipped ...", tr)
	}

	// The response keeps its full extent: lost chunks are NaN-filled,
	// surviving chunks are bit-identical to the single-node decode.
	want, err := sperr.DecompressRegionWorkers(container, [3]int{0, 0, 0}, info.Dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rawio.DecodeFloats(body, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded response has %d samples, want %d", len(got), len(want))
	}
	skipped := make(map[int]bool)
	list := strings.TrimPrefix(tr, "degraded: skipped ")
	if i := strings.IndexByte(list, ';'); i >= 0 {
		// "; unreachable <peers>" suffix names the dead peer(s).
		if !strings.Contains(list[i:], nodes[victim].id) {
			t.Fatalf("trailer %q does not name the killed peer %s", tr, nodes[victim].id)
		}
		list = list[:i]
	}
	for _, f := range strings.Split(list, ",") {
		var ci int
		fmt.Sscanf(f, "%d", &ci)
		skipped[ci] = true
		if !victimChunks[ci] {
			t.Fatalf("skipped chunk %d not owned by the killed peer", ci)
		}
	}
	chunkOf := func(x, y, z int) int {
		for i, c := range info.Chunks {
			if x >= c.Origin[0] && x < c.Origin[0]+c.Dims[0] &&
				y >= c.Origin[1] && y < c.Origin[1]+c.Dims[1] &&
				z >= c.Origin[2] && z < c.Origin[2]+c.Dims[2] {
				return i
			}
		}
		return -1
	}
	for k := range want {
		x := k % info.Dims[0]
		y := (k / info.Dims[0]) % info.Dims[1]
		z := k / (info.Dims[0] * info.Dims[1])
		if skipped[chunkOf(x, y, z)] {
			if !math.IsNaN(got[k]) {
				t.Fatalf("sample %d in a skipped chunk is %v, want NaN fill", k, got[k])
			}
		} else if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("sample %d in a surviving chunk differs from single-node decode", k)
		}
	}

	// The loss shows up in the metrics.
	_, metrics := do(t, "GET", nodes[0].url+"/metrics", nil)
	m := string(metrics)
	if !strings.Contains(m, "sperrd_cluster_degraded_total 1") {
		t.Fatal("metrics missing sperrd_cluster_degraded_total")
	}
	if !strings.Contains(m, `sperrd_cluster_requests_total{peer="`+nodes[victim].id+`",outcome="error"}`) &&
		!strings.Contains(m, `sperrd_cluster_requests_total{peer="`+nodes[victim].id+`",outcome="timeout"}`) {
		t.Fatal("metrics missing failed-peer outcome counter")
	}
	if !strings.Contains(m, "sperrd_cluster_filled_chunks_total") {
		t.Fatal("metrics missing filled-chunks counter")
	}
}

// TestClusterFailoverSurvivesPeerDeath pins the replication acceptance
// criterion end-to-end: with the default 2 replicas per chunk, killing
// a peer that primary-owns chunks leaves a full-volume read 200, NOT
// degraded, and byte-identical to the single-node decode — and the
// failover is visible in sperrd_replica_failover_chunks_total.
func TestClusterFailoverSurvivesPeerDeath(t *testing.T) {
	nodes := newClusterNodes(t, 3, func(i int, cfg *Config) {
		cfg.PeerTimeout = 500 * time.Millisecond
	})
	container := readFixture(t, "../../testdata/golden_adaptive_48x32x32_v3.sperr")
	info, err := sperr.Describe(container)
	if err != nil {
		t.Fatal(err)
	}
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)

	// Victim: a non-coordinator peer that primary-owns at least one
	// chunk, so the read MUST fail over to a surviving replica.
	cl := nodes[0].s.Cluster()
	victim := -1
	for ci := 0; ci < info.NumChunks && victim < 0; ci++ {
		primary := cl.Owners(id, ci)[0]
		for i := 1; i < len(nodes); i++ {
			if primary == nodes[i].id {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("placement put every primary on the coordinator")
	}
	nodes[victim].ts.Close()

	want, err := sperr.DecompressRegionWorkers(container, [3]int{0, 0, 0}, info.Dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := rawio.EncodeFloats(want, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf("0,0,0,%d,%d,%d", info.Dims[0], info.Dims[1], info.Dims[2])
	res, body := getClusterRegion(t, nodes[0], id, spec, "&workers=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("failover read answered %d: %s", res.StatusCode, body)
	}
	if tr := res.Trailer.Get("X-Sperr-Status"); tr != "ok" {
		t.Fatalf("trailer %q, want ok (read must not degrade with a live replica)", tr)
	}
	if string(body) != string(wantRaw) {
		t.Fatal("failover read differs from single-node decode")
	}

	_, metrics := do(t, "GET", nodes[0].url+"/metrics", nil)
	m := string(metrics)
	if !strings.Contains(m, "sperrd_replica_failover_chunks_total") ||
		strings.Contains(m, "sperrd_replica_failover_chunks_total 0") {
		t.Fatal("metrics missing a non-zero sperrd_replica_failover_chunks_total")
	}
	if !strings.Contains(m, "sperrd_cluster_degraded_total 0") {
		t.Fatal("failover read must not count as degraded")
	}
}

// TestClusterDeleteFansOut pins cluster-wide delete: one DELETE removes
// the shard from every peer.
func TestClusterDeleteFansOut(t *testing.T) {
	nodes := newClusterNodes(t, 3, nil)
	container := readFixture(t, "../../testdata/golden_pwe_24x17x9_v2.sperr")
	id := ingest(t, nodes[0].ts, container, http.StatusCreated)

	res, body := do(t, "DELETE", nodes[1].url+"/v1/volumes/"+id, nil)
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("cluster delete: %d (%s)", res.StatusCode, body)
	}
	for _, node := range nodes {
		if _, ok := node.s.Store().Describe(id); ok {
			t.Fatalf("node %s still holds the shard", node.id)
		}
		res, _ := do(t, "GET", node.url+"/v1/volumes/"+id, nil)
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("node %s answers %d for deleted volume", node.id, res.StatusCode)
		}
	}
	res, _ = do(t, "DELETE", nodes[2].url+"/v1/volumes/"+id, nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", res.StatusCode)
	}
}

// TestClusterRejectsUnshardable pins config and input validation: a
// retired v1 container is refused (422, naming its upgrade), and cluster
// mode without a store or node id refuses to start.
func TestClusterRejectsUnshardable(t *testing.T) {
	nodes := newClusterNodes(t, 2, nil)
	v1 := readFixture(t, v1FixturePath)
	res, body := do(t, "PUT", nodes[0].url+"/v1/volumes", v1)
	if res.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "sperr repair") {
		t.Fatalf("v1 cluster ingest: %d (%s), want 422 naming sperr repair", res.StatusCode, body)
	}

	if _, err := New(Config{Peers: []string{"a=http://x", "b=http://y"}, NodeID: "a"}); err == nil {
		t.Fatal("cluster without store dir accepted")
	}
	if _, err := New(Config{Peers: []string{"a=http://x", "b=http://y"}, StoreDir: t.TempDir()}); err == nil {
		t.Fatal("cluster without node id accepted")
	}
	if _, err := New(Config{Peers: []string{"bogus"}, NodeID: "a", StoreDir: t.TempDir()}); err == nil {
		t.Fatal("malformed peer entry accepted")
	}
}

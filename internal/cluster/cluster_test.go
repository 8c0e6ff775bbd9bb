package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/obs"
	"sperr/internal/store"
)

func testField(dims [3]int, seed int64) []float64 {
	nx, ny, nz := dims[0], dims[1], dims[2]
	data := make([]float64, nx*ny*nz)
	rng := uint64(seed)*2862933555777941757 + 3037000493
	for i := range data {
		x, y, z := i%nx, (i/nx)%ny, i/(nx*ny)
		rng = rng*2862933555777941757 + 3037000493
		data[i] = math.Sin(0.2*float64(x))*math.Cos(0.15*float64(y)) +
			0.3*math.Sin(0.1*float64(z)) + 0.05*float64(rng>>40)/(1<<24)
	}
	return data
}

func makeContainer(t testing.TB, dims, chunkDims [3]int, seed int64) []byte {
	t.Helper()
	stream, _, err := sperr.CompressPWE(testField(dims, seed), dims, 1e-3,
		&sperr.Options{ChunkDims: chunkDims})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// fakePeer is a minimal peer-protocol server backed by a real store —
// the same wire contract the sperrd handlers speak, reimplemented here
// so the package tests do not depend on internal/server.
type fakePeer struct {
	st  *store.Store
	srv *httptest.Server
}

func newFakePeer(t testing.TB) *fakePeer {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{CacheSamples: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	p := &fakePeer{st: st}
	p.srv = httptest.NewServer(http.HandlerFunc(p.serve))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/internal/manifest" {
		var out []ManifestEntry
		for _, m := range p.st.List() {
			out = append(out, ManifestEntry{ID: m.ID, NumChunks: m.NumChunks})
		}
		json.NewEncoder(w).Encode(out)
		return
	}
	if rid := strings.TrimPrefix(r.URL.Path, "/v1/internal/repair/"); rid != r.URL.Path {
		_, blob, err := p.st.Get(rid)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		want := make(map[int]bool)
		if raw := r.URL.Query().Get("chunks"); raw != "" {
			for _, f := range strings.Split(raw, ",") {
				ci, _ := strconv.Atoi(f)
				want[ci] = true
			}
		}
		intact, err := sperr.OwnedChunks(blob)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		keep := make(map[int]bool)
		for _, ci := range intact {
			if want[ci] {
				keep[ci] = true
			}
		}
		shard, err := sperr.SliceShard(blob, func(ci int) bool { return keep[ci] })
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Write(shard)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/internal/chunks/")
	switch r.Method {
	case http.MethodPut:
		body := make([]byte, 0, 1<<20)
		buf := make([]byte, 32<<10)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		if _, _, err := p.st.PutShard(id, body); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if err := p.st.Delete(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		meta, ok := p.st.Describe(id)
		if !ok {
			http.Error(w, "no such volume", http.StatusNotFound)
			return
		}
		var ro, rd [3]int
		fmt.Sscanf(r.URL.Query().Get("region"), "%d,%d,%d,%d,%d,%d",
			&ro[0], &ro[1], &ro[2], &rd[0], &rd[1], &rd[2])
		for _, f := range strings.Split(r.URL.Query().Get("chunks"), ",") {
			ci, err := strconv.Atoi(f)
			if err != nil || ci < 0 || ci >= len(meta.Chunks) {
				http.Error(w, "bad chunk index", http.StatusBadRequest)
				return
			}
			cg := meta.Chunks[ci]
			o, d, ok := grid.Intersect(ro, rd, cg.Origin, cg.Dims)
			if !ok {
				continue
			}
			data, _, err := p.st.Region(r.Context(), id, o, d, 1)
			if err != nil {
				return // short stream: chunk not servable
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(ci))
			binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(data)))
			w.Write(hdr[:])
			binary.Write(w, binary.LittleEndian, data)
		}
	default:
		http.Error(w, "method", http.StatusMethodNotAllowed)
	}
}

// testCluster builds an n-node roster of fake peers and returns one
// Cluster handle per node (default replica count).
func testCluster(t testing.TB, n int) ([]*Cluster, []*fakePeer) {
	return testClusterR(t, n, 0)
}

// testClusterR is testCluster with an explicit replica count.
func testClusterR(t testing.TB, n, replicas int) ([]*Cluster, []*fakePeer) {
	return testClusterReg(t, n, replicas, nil)
}

// testClusterReg is testClusterR with every node counting into reg (nil:
// a registry per node).
func testClusterReg(t testing.TB, n, replicas int, reg *obs.Registry) ([]*Cluster, []*fakePeer) {
	t.Helper()
	peers := make([]*fakePeer, n)
	roster := make(map[string]string, n)
	for i := range peers {
		peers[i] = newFakePeer(t)
		roster[fmt.Sprintf("node-%c", 'a'+i)] = peers[i].srv.URL
	}
	clusters := make([]*Cluster, n)
	for i := range clusters {
		c, err := New(Config{
			Self:     fmt.Sprintf("node-%c", 'a'+i),
			Peers:    roster,
			Timeout:  5 * time.Second,
			Replicas: replicas,
			Registry: reg,
		}, peers[i].st)
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = c
	}
	return clusters, peers
}

// gather collects a cluster region read into a row-major buffer for
// comparison against the single-node decode.
func gather(t testing.TB, c *Cluster, id string, origin, dims [3]int, fill float64) ([]float64, *RegionReport) {
	t.Helper()
	out := make([]float64, dims[0]*dims[1]*dims[2])
	for i := range out {
		out[i] = math.Inf(1) // sentinel: every cell must be written exactly once
	}
	rep, err := c.Region(context.Background(), id, origin, dims,
		RegionOptions{Workers: 2, Fill: fill}, func(p ChunkPiece) error {
			for z := 0; z < p.Dims[2]; z++ {
				for y := 0; y < p.Dims[1]; y++ {
					for x := 0; x < p.Dims[0]; x++ {
						gx, gy, gz := p.Origin[0]+x-origin[0], p.Origin[1]+y-origin[1], p.Origin[2]+z-origin[2]
						oi := (gz*dims[1]+gy)*dims[0] + gx
						if !math.IsInf(out[oi], 1) {
							t.Errorf("cell %d written twice", oi)
						}
						out[oi] = p.Samples[(z*p.Dims[1]+y)*p.Dims[0]+x]
					}
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.IsInf(v, 1) {
			t.Fatalf("cell %d never written", i)
		}
	}
	return out, rep
}

// TestIngestRegionBitIdentical is the core contract: a 3-node
// scatter-gather read returns exactly the bytes of a single-node
// DecompressRegion, from any coordinator, on an odd-dimension volume
// whose regions straddle chunk boundaries.
func TestIngestRegionBitIdentical(t *testing.T) {
	dims := [3]int{21, 13, 7}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 5)
	clusters, _ := testCluster(t, 3)

	meta, created, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first ingest reported created=false")
	}
	id := meta.ID

	// Re-ingest from another coordinator is idempotent.
	if _, created, err := clusters[1].Ingest(context.Background(), container); err != nil || created {
		t.Fatalf("re-ingest: created=%v err=%v", created, err)
	}

	regions := []struct{ o, d [3]int }{
		{[3]int{0, 0, 0}, dims},             // full volume
		{[3]int{5, 6, 2}, [3]int{9, 4, 4}},  // straddles x, y and z chunk boundaries
		{[3]int{7, 7, 3}, [3]int{1, 1, 1}},  // single sample at a corner
		{[3]int{16, 8, 4}, [3]int{5, 5, 3}}, // tail chunks (odd remainders)
	}
	for _, rg := range regions {
		want, err := sperr.DecompressRegionWorkers(container, rg.o, rg.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		for ni, c := range clusters {
			got, rep := gather(t, c, id, rg.o, rg.d, math.NaN())
			if len(rep.Skipped) != 0 {
				t.Fatalf("node %d region %v: degraded %v with all peers up", ni, rg, rep.Skipped)
			}
			for k := range want {
				if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
					t.Fatalf("node %d region %v sample %d: cluster read differs from single-node", ni, rg, k)
				}
			}
		}
	}
}

func TestRegionDegradesWhenPeerDies(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 9)
	// Pinned to one replica: this is the pre-replication degradation
	// contract (fill value, never an error) that still holds when a chunk
	// has no surviving copy anywhere.
	clusters, peers := testClusterR(t, 3, 1)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner of chunk 0 and read through another node: the
	// victim is chosen first, so the test does not depend on how the
	// ring spreads chunks over the peers.
	victimID := clusters[0].Owner(meta.ID, 0)
	victim := peerIndex(victimID)
	peers[victim].srv.Close()
	c := clusters[(victim+1)%len(clusters)]

	fill := math.NaN()
	got, rep := gather(t, c, meta.ID, [3]int{0, 0, 0}, dims, fill)
	if len(rep.Skipped) == 0 {
		t.Fatal("killed an owning peer but nothing degraded")
	}
	// Filled cells are NaN; cells from surviving chunks are bit-identical.
	want, err := sperr.DecompressRegionWorkers(container, [3]int{0, 0, 0}, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	skipped := make(map[int]bool)
	for _, ci := range rep.Skipped {
		if owner := c.Owner(meta.ID, ci); owner != victimID {
			t.Fatalf("skipped chunk %d is owned by %s, not the killed peer %s", ci, owner, victimID)
		}
		skipped[ci] = true
	}
	for k := range want {
		x, y, z := k%dims[0], (k/dims[0])%dims[1], k/(dims[0]*dims[1])
		ci := chunkIndexOf(meta, x, y, z)
		if skipped[ci] {
			if !math.IsNaN(got[k]) {
				t.Fatalf("sample %d in skipped chunk %d not filled", k, ci)
			}
		} else if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("sample %d in live chunk %d differs", k, ci)
		}
	}
}

// chunkIndexOf locates the chunk containing voxel (x,y,z).
func chunkIndexOf(meta *store.Meta, x, y, z int) int {
	for i, cg := range meta.Chunks {
		if x >= cg.Origin[0] && x < cg.Origin[0]+cg.Dims[0] &&
			y >= cg.Origin[1] && y < cg.Origin[1]+cg.Dims[1] &&
			z >= cg.Origin[2] && z < cg.Origin[2]+cg.Dims[2] {
			return i
		}
	}
	return -1
}

func TestDeleteFansOut(t *testing.T) {
	container := makeContainer(t, [3]int{24, 17, 9}, [3]int{16, 16, 16}, 13)
	clusters, peers := testCluster(t, 3)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if _, ok := p.st.Describe(meta.ID); !ok {
			t.Fatalf("peer %d missing shard after ingest", i)
		}
	}
	if err := clusters[0].Delete(context.Background(), meta.ID); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if _, ok := p.st.Describe(meta.ID); ok {
			t.Fatalf("peer %d still has shard after delete", i)
		}
	}
	// Idempotent from the remote side; local reports not found.
	if err := clusters[0].Delete(context.Background(), meta.ID); err == nil {
		t.Fatal("double delete did not report missing volume")
	}
}

// TestRegionFailoverSurvivesPeerDeath is the replication acceptance pin
// at the cluster layer: with two replicas per chunk, killing a peer that
// primarily owns chunks yields a read that is non-degraded and
// bit-identical to the single-node decode — failover, not fill.
func TestRegionFailoverSurvivesPeerDeath(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 11)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}

	// Every chunk must live on exactly two peers after a replicated ingest.
	for ci := 0; ci < meta.NumChunks; ci++ {
		holders := 0
		for _, p := range peers {
			if m, ok := p.st.Describe(meta.ID); ok && m.OwnsChunk(ci) {
				holders++
			}
		}
		if holders != 2 {
			t.Fatalf("chunk %d resident on %d peers, want 2", ci, holders)
		}
	}

	victim, c := killPrimary(clusters, meta, peers)

	want, err := sperr.DecompressRegionWorkers(container, [3]int{0, 0, 0}, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, rep := gather(t, c, meta.ID, [3]int{0, 0, 0}, dims, math.NaN())
	if len(rep.Skipped) != 0 {
		t.Fatalf("read degraded (skipped %v) with a surviving replica for every chunk", rep.Skipped)
	}
	if rep.FailedOver == 0 {
		t.Fatal("killed a primary owner but FailedOver = 0")
	}
	victimID := fmt.Sprintf("node-%c", 'a'+victim)
	found := false
	for _, p := range rep.Unreachable {
		if p == victimID {
			found = true
		}
	}
	if !found {
		t.Fatalf("Unreachable %v does not name the killed peer %s", rep.Unreachable, victimID)
	}
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("sample %d differs from single-node decode after failover", k)
		}
	}
}

// killPrimary stops the primary owner of chunk 0 and returns its index
// and a coordinator on another node, so that a read through it must fail
// over. The victim is chosen first, so the test does not depend on how
// the ring spreads primaries.
func killPrimary(clusters []*Cluster, meta *store.Meta, peers []*fakePeer) (int, *Cluster) {
	victim := peerIndex(clusters[0].Owner(meta.ID, 0))
	peers[victim].srv.Close()
	return victim, clusters[(victim+1)%len(clusters)]
}

// peerIndex maps a roster name "node-x" to its index in testCluster's
// slices.
func peerIndex(id string) int { return int(id[len("node-")] - 'a') }

// A read whose replica sweep delivered every chunk is complete: the
// replica ranks are the only second chance a chunk gets, so a dead
// primary costs a failover and nothing else.
func TestRegionFailoverNeedsNoRetry(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 11)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	_, c := killPrimary(clusters, meta, peers)
	_, rep := gather(t, c, meta.ID, [3]int{0, 0, 0}, dims, math.NaN())
	if rep.FailedOver == 0 || len(rep.Skipped) != 0 {
		t.Fatalf("FailedOver = %d, Skipped = %v: the read did not fail over cleanly", rep.FailedOver, rep.Skipped)
	}
}

// corruptOwnedFrame is bit rot in an owned frame: it flips two bytes of
// a shard blob on disk at the first offset where sperr.OwnedChunks proves
// an owned frame stopped verifying, and returns the chunks lost.
func corruptOwnedFrame(t *testing.T, st *store.Store, id string) []int {
	t.Helper()
	path := filepath.Join(st.Dir(), "volumes", id+".sperr")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sperr.OwnedChunks(blob)
	if err != nil {
		t.Fatal(err)
	}
	for off := 40; off+2 < len(blob)-8; off += 64 {
		mod := bytes.Clone(blob)
		mod[off] ^= 0xff
		mod[off+1] ^= 0xff
		after, err := sperr.OwnedChunks(mod)
		if err != nil || len(after) >= len(before) {
			continue
		}
		if err := os.WriteFile(path, mod, 0o644); err != nil {
			t.Fatal(err)
		}
		return slices.DeleteFunc(before, func(ci int) bool { return slices.Contains(after, ci) })
	}
	t.Fatal("no two-byte flip unseated an owned frame")
	return nil
}

// TestScrubHealsBitRot: corrupt an owned frame in one peer's shard blob
// on disk, run one anti-entropy pass on that peer, and the damaged
// chunk is re-fetched intact from its surviving replica — no client
// read involved.
func TestScrubHealsBitRot(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 17)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a peer that owns at least one chunk.
	victim := -1
	for i, p := range peers {
		if m, ok := p.st.Describe(meta.ID); ok && len(m.Owned) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no peer owns any chunk")
	}
	desired := clusters[victim].desiredChunks(meta.ID, meta.NumChunks)

	lost := corruptOwnedFrame(t, peers[victim].st, meta.ID)

	rep := clusters[victim].ScrubOnce(context.Background())
	if rep.Damaged < len(lost) || rep.Repaired < len(lost) {
		t.Fatalf("scrub pass: damaged=%d repaired=%d errors=%v, want both >= %d (lost %v)",
			rep.Damaged, rep.Repaired, rep.Errors, len(lost), lost)
	}

	// The blob proves every ring-owned chunk intact.
	_, blob, err := peers[victim].st.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := sperr.OwnedChunks(blob)
	if err != nil {
		t.Fatalf("healed blob unparseable: %v", err)
	}
	ownedSet := make(map[int]bool)
	for _, ci := range owned {
		ownedSet[ci] = true
	}
	for _, ci := range desired {
		if !ownedSet[ci] {
			t.Fatalf("chunk %d still missing after scrub", ci)
		}
	}
	// And the healed frames are byte-faithful: a full read from the
	// coordinator is bit-identical with no degradation.
	want, err := sperr.DecompressRegionWorkers(container, [3]int{0, 0, 0}, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, rrep := gather(t, clusters[0], meta.ID, [3]int{0, 0, 0}, dims, math.NaN())
	if len(rrep.Skipped) != 0 {
		t.Fatalf("post-heal read degraded: %v", rrep.Skipped)
	}
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("sample %d differs after heal", k)
		}
	}
}

// TestScrubRejoinConverges: a peer that lost its entire local copy of a
// volume (replacement node, wiped disk) converges back to full
// ownership through manifest discovery plus repair — no ingest replay.
func TestScrubRejoinConverges(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 23)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}

	// Wipe node-c's copy entirely.
	if err := peers[2].st.Delete(meta.ID); err != nil {
		t.Fatal(err)
	}

	rep := clusters[2].ScrubOnce(context.Background())
	if rep.Discovered != 1 {
		t.Fatalf("discovered %d volumes, want 1 (errors: %v)", rep.Discovered, rep.Errors)
	}
	m, ok := peers[2].st.Describe(meta.ID)
	if !ok {
		t.Fatal("volume still unknown after rejoin scrub")
	}
	desired := clusters[2].desiredChunks(meta.ID, meta.NumChunks)
	for _, ci := range desired {
		if !m.OwnsChunk(ci) {
			t.Fatalf("chunk %d not owned after rejoin scrub (owned %v, want %v)", ci, m.Owned, desired)
		}
	}
	// Idempotent: a second pass finds nothing to do.
	rep = clusters[2].ScrubOnce(context.Background())
	if rep.Discovered != 0 || rep.Damaged != 0 || rep.Repaired != 0 {
		t.Fatalf("second pass not clean: %+v", rep)
	}
}

func TestIngestRejectsV1(t *testing.T) {
	clusters, _ := testCluster(t, 2)
	v1, err := os.ReadFile("../../testdata/golden_pwe_24x17x9.sperr")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = clusters[0].Ingest(context.Background(), v1)
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "sperr repair") {
		t.Fatalf("v1 ingest: %v, want store.ErrCorrupt naming sperr repair", err)
	}
}

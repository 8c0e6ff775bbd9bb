package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty roster accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty peer id accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate peer id accepted")
	}
}

func TestRingBalance(t *testing.T) {
	peers := []string{"node-a", "node-b", "node-c"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3000
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		counts[r.Owner(ChunkKey("vol", i))]++
	}
	want := keys / len(peers)
	for _, p := range peers {
		got := counts[p]
		if got < want/2 || got > want*2 {
			t.Fatalf("peer %s owns %d of %d keys (expected near %d): %v", p, got, keys, want, counts)
		}
	}
}

func TestRingStabilityOnPeerRemoval(t *testing.T) {
	// Removing one peer of three must only move keys that the removed
	// peer owned — that is the point of consistent hashing.
	full, err := NewRing([]string{"node-a", "node-b", "node-c"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"node-a", "node-c"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		k := ChunkKey("vol", i)
		before, after := full.Owner(k), reduced.Owner(k)
		if before == "node-b" {
			continue // had to move
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed peer changed owner", moved)
	}
}

func TestRingDeterministicAcrossRosterOrder(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := ChunkKey("deadbeef", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %s: owner %s vs %s depending on roster order", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingCollisionTieBreak(t *testing.T) {
	// Force a hash collision by constructing a ring whose points collide:
	// we can't easily find colliding FNV inputs, so instead verify the
	// comparator directly — equal hashes order by rendezvous hash, and
	// that order is independent of peer slice order.
	ra := &Ring{peers: []string{"p1", "p2"}}
	rb := &Ring{peers: []string{"p2", "p1"}}
	const h = 0x1234_5678_9abc_def0
	lessA := fnv64(fmt.Sprintf("%s|%d", "p1", uint64(h))) < fnv64(fmt.Sprintf("%s|%d", "p2", uint64(h)))
	// The same comparison evaluated from rb's perspective must agree.
	lessB := fnv64(fmt.Sprintf("%s|%d", rb.peers[1], uint64(h))) < fnv64(fmt.Sprintf("%s|%d", rb.peers[0], uint64(h)))
	if lessA != lessB {
		t.Fatal("rendezvous tie-break depends on roster order")
	}
	_ = ra
}

// TestOwnersProperties is the replica-set property test: for every key,
// Owners(key, r) must be r distinct live peers (clamped to the roster),
// led by Owner(key), with a stable prefix order — Owners(key, r) is a
// prefix of Owners(key, r+1) — and under roster churn the set may only
// change where the churned peer was a member.
func TestOwnersProperties(t *testing.T) {
	rosters := [][]string{
		{"a"},
		{"node-a", "node-b"},
		{"node-a", "node-b", "node-c"},
		{"n1", "n2", "n3", "n4", "n5"},
	}
	for _, roster := range rosters {
		r, err := NewRing(roster)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			k := ChunkKey("feedface", i)
			for want := 1; want <= len(roster)+2; want++ {
				owners := r.Owners(k, want)
				eff := want
				if eff > len(roster) {
					eff = len(roster)
				}
				if len(owners) != eff {
					t.Fatalf("roster %v: Owners(%s,%d) has %d entries, want %d", roster, k, want, len(owners), eff)
				}
				if owners[0] != r.Owner(k) {
					t.Fatalf("Owners(%s,%d)[0] = %s, Owner = %s", k, want, owners[0], r.Owner(k))
				}
				seen := make(map[string]bool)
				for _, p := range owners {
					if seen[p] {
						t.Fatalf("Owners(%s,%d) repeats peer %s: %v", k, want, p, owners)
					}
					seen[p] = true
				}
				// Prefix stability: a larger replica request never reorders
				// the smaller one (failover order is well-defined).
				if want > 1 {
					prev := r.Owners(k, want-1)
					for j := range prev {
						if owners[j] != prev[j] {
							t.Fatalf("Owners(%s,%d) is not a prefix of Owners(%s,%d)", k, want-1, k, want)
						}
					}
				}
			}
		}
	}

	// Churn: removing a peer that is NOT in a key's replica set leaves
	// the set unchanged (consistent hashing extended to replica lists).
	full, err := NewRing([]string{"node-a", "node-b", "node-c", "node-d"})
	if err != nil {
		t.Fatal(err)
	}
	without := make(map[string]*Ring)
	for _, gone := range []string{"node-a", "node-b", "node-c", "node-d"} {
		var rest []string
		for _, p := range []string{"node-a", "node-b", "node-c", "node-d"} {
			if p != gone {
				rest = append(rest, p)
			}
		}
		without[gone], err = NewRing(rest)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		k := ChunkKey("cafed00d", i)
		set := full.Owners(k, 2)
		member := map[string]bool{set[0]: true, set[1]: true}
		for gone, reduced := range without {
			if member[gone] {
				continue
			}
			after := reduced.Owners(k, 2)
			if after[0] != set[0] || after[1] != set[1] {
				t.Fatalf("key %s: removing non-member %s changed replica set %v -> %v", k, gone, set, after)
			}
		}
	}
}

// TestRingConcurrentChurnHammer races in-flight placement lookups on
// live rings against continuous ring construction over churned rosters
// (the roster is immutable per Ring, so the only safety question is
// reads racing reads, and fresh rings racing their own construction).
// Run with -race; correctness check is that concurrent lookups agree
// with a sequential lookup on the same ring.
func TestRingConcurrentChurnHammer(t *testing.T) {
	base := []string{"node-a", "node-b", "node-c", "node-d", "node-e"}
	shared, err := NewRing(base)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, 200)
	for i := range want {
		want[i] = shared.Owners(ChunkKey("deadbeef", i), 3)
	}

	var churners, readers sync.WaitGroup
	stop := make(chan struct{})
	// Churners: continuously build rings over shifting rosters and do
	// lookups on them (a node rebuilding its view during a rolling
	// restart while serving).
	for g := 0; g < 4; g++ {
		churners.Add(1)
		go func(g int) {
			defer churners.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				roster := append([]string(nil), base[:2+(g+round)%4]...)
				r, err := NewRing(roster)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 50; i++ {
					o := r.Owners(ChunkKey("deadbeef", i), 2)
					if len(o) == 0 || len(o) > 2 {
						t.Errorf("churned ring returned %v", o)
						return
					}
				}
			}
		}(g)
	}
	// Readers: hammer the shared ring and pin determinism against the
	// sequential answers.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 200; round++ {
				for i := range want {
					got := shared.Owners(ChunkKey("deadbeef", i), 3)
					for j := range want[i] {
						if got[j] != want[i][j] {
							t.Errorf("concurrent lookup diverged for key %d", i)
							return
						}
					}
				}
			}
		}()
	}
	// Readers finish on their own; then release the churners.
	readers.Wait()
	close(stop)
	churners.Wait()
}

func TestPlacementCoversAllChunks(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	pl := r.Placement("cafebabe", n)
	seen := make(map[int]bool)
	for p, chunks := range pl {
		for i, ci := range chunks {
			if seen[ci] {
				t.Fatalf("chunk %d placed twice", ci)
			}
			seen[ci] = true
			if i > 0 && chunks[i-1] >= ci {
				t.Fatalf("peer %s chunk list not sorted: %v", p, chunks)
			}
			if got := r.Owner(ChunkKey("cafebabe", ci)); got != p {
				t.Fatalf("placement says %s owns chunk %d, Owner says %s", p, ci, got)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("placement covers %d of %d chunks", len(seen), n)
	}
}

// TestChunkOwnersMatchesStringKey pins placement across the move from
// fmt.Sprintf keys and a per-lookup set to incremental hashing: for 16
// content addresses of 640 chunks each (10 240 keys) the key-free lookup
// hashes exactly what the string key hashes, names the same replica sets
// in the same order, and PlacementReplicas lists the same chunks per peer
// — and with room in dst it allocates nothing.
func TestChunkOwnersMatchesStringKey(t *testing.T) {
	r, err := NewRing([]string{"node-a", "node-b", "node-c", "node-d", "node-e"})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 640
	for v := 0; v < 16; v++ {
		sum := sha256.Sum256([]byte{byte(v)})
		id := hex.EncodeToString(sum[:]) // a real content address: 64 hex digits
		for _, replicas := range []int{1, 2, 3} {
			want := make(map[string][]int)
			for ci := 0; ci < chunks; ci++ {
				key := fmt.Sprintf("%s/%d", id, ci) // how keys were built before
				if ChunkKey(id, ci) != key {
					t.Fatalf("ChunkKey = %q, want %q", ChunkKey(id, ci), key)
				}
				if chunkKeyHash(id, ci) != fnv64(key) {
					t.Fatalf("chunkKeyHash(%s, %d) differs from fnv64 of the string key", id[:8], ci)
				}
				byKey := r.Owners(key, replicas)
				if got := r.ChunkOwners(nil, id, ci, replicas); fmt.Sprint(got) != fmt.Sprint(byKey) {
					t.Fatalf("chunk %d of %s: ChunkOwners %v, Owners(key) %v", ci, id[:8], got, byKey)
				}
				if byKey[0] != r.Owner(key) {
					t.Fatalf("chunk %d of %s: primary %s, Owner %s", ci, id[:8], byKey[0], r.Owner(key))
				}
				for _, p := range byKey {
					want[p] = append(want[p], ci)
				}
			}
			if got := r.PlacementReplicas(id, chunks, replicas); !reflect.DeepEqual(got, want) {
				t.Fatalf("PlacementReplicas(%s, %d, %d) moved", id[:8], chunks, replicas)
			}
		}
	}
	dst := make([]string, 0, 3)
	id := hex.EncodeToString(make([]byte, 32))
	if n := testing.AllocsPerRun(100, func() { dst = r.ChunkOwners(dst[:0], id, 123456, 3) }); n != 0 {
		t.Fatalf("ChunkOwners allocates %v times per lookup with room in dst", n)
	}
}

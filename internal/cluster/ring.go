// Package cluster distributes a volume's chunks across a set of sperrd
// peers and gathers them back for region reads.
//
// Placement is a pure function of the peer set and the chunk key: a
// consistent-hash ring with virtual nodes assigns each chunk (keyed by
// the volume's content address plus the chunk index from the container
// footer) to exactly one owning peer, with a rendezvous-hash tie-break
// on the astronomically rare ring-point collision. Because placement is
// deterministic, no placement map is stored or replicated — any node
// that knows the peer roster can compute where every chunk lives, and
// the roster itself is static per-process configuration.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// virtualNodes is the number of ring points per peer. 64 points keeps
// the per-peer load imbalance within a few percent for small rosters
// while the ring stays tiny (a 16-peer ring is 1024 points).
const virtualNodes = 64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64 is FNV-1a over s. Inlined rather than hash/fnv so ring hashing
// allocates nothing and can be called per chunk on the read path.
func fnv64(s string) uint64 { return fnvAdd(fnvOffset64, s) }

// fnvAdd continues an FNV-1a hash h over the bytes of s.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// chunkKeyHash is fnv64(ChunkKey(id, ci)) without building the key: the
// same bytes (id, '/', the decimal index) hashed in the same order, so
// placement is exactly what the string key gives.
func chunkKeyHash(id string, ci int) uint64 {
	h := fnvAdd(fnvOffset64, id)
	h = (h ^ '/') * fnvPrime64
	var dec [20]byte
	for _, b := range strconv.AppendInt(dec[:0], int64(ci), 10) {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

type ringPoint struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is an immutable consistent-hash ring over a set of peer IDs.
// Build one with NewRing; methods are safe for concurrent use.
type Ring struct {
	peers  []string
	points []ringPoint
}

// NewRing builds a ring with virtualNodes points per peer. Peer IDs must
// be unique and non-empty.
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	seen := make(map[string]struct{}, len(peers))
	r := &Ring{
		peers:  append([]string(nil), peers...),
		points: make([]ringPoint, 0, len(peers)*virtualNodes),
	}
	for pi, id := range r.peers {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty peer id")
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = struct{}{}
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64(fmt.Sprintf("%s#%d", id, v)),
				peer: pi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding ring points: rendezvous tie-break. Order the
		// colliding peers by their combined hash with the ring point so
		// the winner is stable regardless of roster order, and every
		// ring that contains both peers agrees on it.
		return fnv64(fmt.Sprintf("%s|%d", r.peers[a.peer], a.hash)) <
			fnv64(fmt.Sprintf("%s|%d", r.peers[b.peer], b.hash))
	})
	return r, nil
}

// Peers returns the roster in construction order.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// ChunkKey is the canonical placement key for chunk index ci of the
// volume with content address id.
func ChunkKey(id string, ci int) string {
	return id + "/" + strconv.Itoa(ci)
}

// Owner returns the peer ID owning key: the first ring point clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.peers[r.ownerIndex(key)]
}

func (r *Ring) ownerIndex(key string) int {
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Owners returns the ordered replica set for key: the first n distinct
// peers encountered walking the ring clockwise from the key's hash. The
// first entry is Owner(key); n is clamped to the roster size. The walk
// order is a pure function of the roster and the key, so every node
// computes the same replica set and the same failover order — and
// because successive ring points belong to independent virtual nodes,
// removing a peer that is not in the set never changes the set, while
// removing a member shifts only the members after it (consistent
// hashing, extended to replica lists).
func (r *Ring) Owners(key string, n int) []string {
	return r.appendOwners(nil, fnv64(key), n)
}

// ChunkOwners is Owners(ChunkKey(id, ci), n) appended to dst, for the read
// path: no key string is built, and a dst with room makes the lookup
// allocation-free.
func (r *Ring) ChunkOwners(dst []string, id string, ci, n int) []string {
	return r.appendOwners(dst, chunkKeyHash(id, ci), n)
}

// appendOwners appends the replica set of the key hashing to h to dst.
func (r *Ring) appendOwners(dst []string, h uint64, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for step := 0; step < len(r.points) && len(dst)-base < n; step++ {
		id := r.peers[r.points[(start+step)%len(r.points)].peer]
		// Replica sets are a handful of peers: scanning what is already
		// chosen beats a set.
		if !slices.Contains(dst[base:], id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Placement maps each of n chunks of volume id to its owning peer,
// returned as peerID -> sorted chunk indices. Peers owning no chunks of
// this volume are absent from the map.
func (r *Ring) Placement(id string, n int) map[string][]int {
	return r.PlacementReplicas(id, n, 1)
}

// PlacementReplicas maps each of n chunks of volume id to its ordered
// replica set of r distinct peers, returned as peerID -> sorted chunk
// indices. With replicas > 1 a chunk appears under every member of its
// replica set; peers owning no chunks of this volume are absent.
func (r *Ring) PlacementReplicas(id string, n, replicas int) map[string][]int {
	out := make(map[string][]int)
	var owners []string
	for ci := 0; ci < n; ci++ {
		owners = r.ChunkOwners(owners[:0], id, ci, replicas)
		for _, p := range owners {
			out[p] = append(out[p], ci)
		}
	}
	return out
}

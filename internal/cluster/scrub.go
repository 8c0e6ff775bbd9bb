package cluster

// Anti-entropy scrubber: the active half of the replication story.
// Replicated ingest puts two copies of every chunk on disk; the
// scrubber is what keeps that invariant true afterwards. Each pass
// walks the local manifest, derives the set of chunks this node ought
// to own from the placement ring (a pure function of roster + id, so no
// coordination is needed), audits the local shard bytes against it, and
// re-fetches anything missing or damaged from the surviving replicas
// over the repair protocol. Because the repair response is itself a
// valid shard container and the store merges shards frame-by-frame,
// healing is idempotent and crash-safe: a half-applied repair just
// converges further on the next pass.
//
// The same pass also makes a rejoining or replacement peer converge to
// full ownership: it unions its peers' manifests to discover volumes it
// has never seen, pulls each one's stub skeleton plus owned frames via
// repair, and then the regular audit loop fills in the rest. No
// operator action, no special "rebuild" mode — an empty store is merely
// the worst case of entropy.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sperr"
)

// DefaultScrubInterval is the pause between anti-entropy passes when the
// operator does not override it.
const DefaultScrubInterval = 30 * time.Second

// ScrubReport summarizes one anti-entropy pass.
type ScrubReport struct {
	// Volumes is the number of local shard volumes audited.
	Volumes int
	// Damaged is the number of owned chunks found missing or damaged
	// (before repair); Repaired how many were restored from replicas.
	Damaged  int
	Repaired int
	// Discovered is the number of volumes learned from peers' manifests
	// that this node had never seen (the rejoin path).
	Discovered int
	// Errors collects per-volume repair failures; the pass continues past
	// them (the next pass retries).
	Errors []error
}

// ScrubOnce runs one anti-entropy pass. Safe to run concurrently with
// reads and ingests — repairs flow through the store's merging PutShard
// under its per-id lock.
func (c *Cluster) ScrubOnce(ctx context.Context) *ScrubReport {
	rep := &ScrubReport{}
	c.scrubRuns.Inc()

	c.discoverVolumes(ctx, rep)

	for _, m := range c.st.List() {
		if m.Owned == nil {
			continue // complete volume, not cluster-placed
		}
		if ctx.Err() != nil {
			break
		}
		rep.Volumes++
		c.scrubVolume(ctx, m.ID, m.NumChunks, rep)
	}

	c.scrubDamaged.Add(int64(rep.Damaged))
	c.scrubRepaired.Add(int64(rep.Repaired))
	return rep
}

// discoverVolumes learns volumes from peers' manifests that this node
// has never seen and pulls their shard skeletons (stub frames plus any
// owned chunks the answering peer holds intact). After this, the normal
// audit loop treats them like any other under-replicated local shard.
func (c *Cluster) discoverVolumes(ctx context.Context, rep *ScrubReport) {
	known := make(map[string]bool)
	for _, m := range c.st.List() {
		known[m.ID] = true
	}
	for _, peer := range c.order {
		if peer == c.self || ctx.Err() != nil {
			continue
		}
		ents, err := c.fetchManifest(ctx, peer)
		if err != nil {
			continue // unreachable peer: the next pass asks again
		}
		for _, e := range ents {
			if known[e.ID] {
				continue
			}
			desired := c.desiredChunks(e.ID, e.NumChunks)
			shard, err := c.fetchRepair(ctx, peer, e.ID, desired)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Errorf("discover %s from %s: %w", shortID(e.ID), peer, err))
				continue
			}
			if _, _, err := c.st.PutShard(e.ID, shard); err != nil {
				rep.Errors = append(rep.Errors, fmt.Errorf("discover %s: %w", shortID(e.ID), err))
				continue
			}
			known[e.ID] = true
			rep.Discovered++
		}
	}
}

// desiredChunks lists the chunk indices of volume id this node should
// own under the current ring — membership in the chunk's replica set.
func (c *Cluster) desiredChunks(id string, numChunks int) []int {
	var out []int
	for ci := 0; ci < numChunks; ci++ {
		for _, p := range c.Owners(id, ci) {
			if p == c.self {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

// scrubVolume audits one local shard against its ring-derived owned set
// and heals the difference from replicas. The audit trusts only bytes:
// the blob is re-parsed and each owned frame's checksum re-verified
// (sperr.OwnedChunks), so manifest drift, bit rot, and truncation all
// surface as repairs rather than being believed.
func (c *Cluster) scrubVolume(ctx context.Context, id string, numChunks int, rep *ScrubReport) {
	desired := c.desiredChunks(id, numChunks)
	if len(desired) == 0 {
		return
	}
	intact := make(map[int]bool)
	if _, blob, err := c.st.Get(id); err == nil {
		if owned, err := sperr.OwnedChunks(blob); err == nil {
			for _, ci := range owned {
				intact[ci] = true
			}
		}
		// An unreadable or unparseable blob leaves intact empty: every
		// desired chunk is treated as lost and re-fetched.
	}
	need := make(map[int]bool)
	for _, ci := range desired {
		if !intact[ci] {
			need[ci] = true
		}
	}
	if len(need) == 0 {
		return
	}
	rep.Damaged += len(need)

	// Walk replica ranks: ask each missing chunk's best surviving replica
	// first, falling through to later ranks for whatever stays missing.
	for rank := 0; len(need) > 0 && rank < len(c.order); rank++ {
		groups := make(map[string][]int)
		for ci := range need {
			var others []string
			for _, p := range c.Owners(id, ci) {
				if p != c.self {
					others = append(others, p)
				}
			}
			if rank < len(others) {
				groups[others[rank]] = append(groups[others[rank]], ci)
			}
		}
		if len(groups) == 0 {
			break
		}
		for peer, cis := range groups {
			if ctx.Err() != nil {
				return
			}
			sort.Ints(cis)
			shard, err := c.fetchRepair(ctx, peer, id, cis)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Errorf("repair %s from %s: %w", shortID(id), peer, err))
				continue
			}
			meta, _, err := c.st.PutShard(id, shard)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Errorf("repair %s: merge: %w", shortID(id), err))
				continue
			}
			for _, ci := range meta.Owned {
				if need[ci] {
					delete(need, ci)
					rep.Repaired++
				}
			}
		}
	}
}

// StartScrubber launches the background anti-entropy loop, running one
// pass every interval (0 or negative = DefaultScrubInterval). The
// returned stop function cancels the loop and waits for an in-flight
// pass to finish.
func (c *Cluster) StartScrubber(interval time.Duration, onPass func(*ScrubReport)) (stop func()) {
	if interval <= 0 {
		interval = DefaultScrubInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r := c.ScrubOnce(ctx)
				if onPass != nil {
					onPass(r)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

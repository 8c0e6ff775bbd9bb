package store

import (
	"context"
	"fmt"
	"os"

	"sperr/internal/chunk"
	"sperr/internal/grid"
)

// RegionStats describes how one Region call was served.
type RegionStats struct {
	// Chunks is the number of chunks intersecting the cutout; Hits of
	// them came from the decoded cache, Misses had to be decoded.
	Chunks, Hits, Misses int
	// Decoded is the number of chunk frames actually decoded — zero on a
	// full cache hit.
	Decoded int
	// Samples is the cutout's sample count.
	Samples int
}

// Cached reports a fully cache-served read (zero decode work).
func (st *RegionStats) Cached() bool { return st.Misses == 0 }

// RegionPlan is the admission probe for a read: how many of its chunks
// are not resident right now. The plan is advisory — the cache can change
// between planning and reading — but the decode arena bound it implies
// (workers x MaxChunkSamples) holds regardless, because a read never
// decodes more than workers chunks at once.
type RegionPlan struct {
	Chunks          int
	MissingChunks   int
	MissingSamples  int64
	MaxChunkSamples int64
}

// Intersecting returns the indices of m's chunks whose boxes overlap the
// cutout of extent dims anchored at origin, in container order.
func (m *Meta) Intersecting(origin, dims [3]int) []int {
	overlaps := func(g ChunkGeom) bool {
		_, _, ok := grid.Intersect(origin, dims, g.Origin, g.Dims)
		return ok
	}
	n := 0 // counted first, so the hot path allocates the list once
	for _, g := range m.Chunks {
		if overlaps(g) {
			n++
		}
	}
	idx := make([]int, 0, n)
	for i, g := range m.Chunks {
		if overlaps(g) {
			idx = append(idx, i)
		}
	}
	return idx
}

// PlanRegion reports what reading chunks (indices into m.Chunks) would
// take right now: how many are not cached, and the largest chunk's sample
// count (the per-worker decode arena unit). It only probes residency, so
// it counts nothing toward the cache's admission gate.
func (s *Store) PlanRegion(m *Meta, chunks []int) RegionPlan {
	plan := RegionPlan{Chunks: len(chunks)}
	for _, ci := range chunks {
		g := m.Chunks[ci]
		n := int64(g.Dims[0]) * int64(g.Dims[1]) * int64(g.Dims[2])
		plan.MaxChunkSamples = max(plan.MaxChunkSamples, n)
		if !s.cache.Contains(chunkKey{ID: m.ID, Chunk: ci}) {
			plan.MissingChunks++
			plan.MissingSamples += n
		}
	}
	return plan
}

// Lookup is the first half of the store's one read step, the cache pass:
// it holds the slabs of the requested chunks that are resident now, so an
// eviction after the lookup costs the read nothing, and it has counted
// the read's hits and misses. Read is the second half.
type Lookup struct {
	// Hits of the requested chunks are held; Misses must be decoded.
	Hits, Misses int

	s      *Store
	m      *Meta
	chunks []int
	held   []*slabEntry // per requested chunk: its resident slab, or nil
}

// Lookup takes the cache pass for chunks (container-order indices) of
// volume id: one Get per chunk, then OnHit and OnMiss once each with the
// read's counts. Nothing is decoded yet. An unknown id is ErrNotFound; an
// index outside the volume is refused before the cache is touched.
func (s *Store) Lookup(id string, chunks []int) (Lookup, error) {
	m, ok := s.Describe(id)
	if !ok {
		return Lookup{}, ErrNotFound
	}
	for _, ci := range chunks {
		if ci < 0 || ci >= len(m.Chunks) {
			return Lookup{}, fmt.Errorf("store: chunk %d outside volume %s (%d chunks)", ci, shortID(id), len(m.Chunks))
		}
	}
	l := Lookup{s: s, m: m, chunks: chunks, held: make([]*slabEntry, len(chunks))}
	for k, ci := range chunks {
		if l.held[k] = s.cache.Get(chunkKey{ID: id, Chunk: ci}); l.held[k] != nil {
			l.Hits++
		} else {
			l.Misses++
		}
	}
	if s.opts.Hooks.OnHit != nil && l.Hits > 0 {
		s.opts.Hooks.OnHit(l.Hits)
	}
	if s.opts.Hooks.OnMiss != nil && l.Misses > 0 {
		s.opts.Hooks.OnMiss(l.Misses)
	}
	return l, nil
}

// Read is the second half of the read step. It hands fn every looked-up
// chunk: its index and whole decoded slab (x-fastest over the chunk's own
// box, which Describe's geometry gives), or that chunk's error. Held slabs
// come first, with no decode. If anything missed, the blob is read once
// and the misses are decoded on chunk.ReadChunks, up to workers at a time
// (<= 0: GOMAXPROCS), each kept in a slab of its own and offered to the
// cache. fn runs on the calling goroutine, one chunk at a time.
//
// A slab may be the cache's own memory, shared with other readers, so fn
// only reads it; it stays valid after eviction, because the cache drops
// slabs and never recycles them. fn's return value is the error policy:
// an error stops the read — nothing more is dispatched, and Read returns
// it once the decodes in flight have finished — while nil goes on to the
// next chunk, even after that chunk's error. A canceled ctx stops the
// read the same way.
func (l *Lookup) Read(ctx context.Context, workers int, fn func(ci int, slab []float64, err error) error) error {
	misses := make([]int, 0, l.Misses)
	for k, e := range l.held {
		if e == nil {
			misses = append(misses, l.chunks[k])
		} else if err := fn(l.chunks[k], e.data, nil); err != nil {
			return err
		}
	}
	if l.Misses == 0 {
		return nil
	}
	s, m := l.s, l.m
	blob, err := os.ReadFile(s.blobPath(m.ID))
	if err != nil {
		err = fmt.Errorf("store: blob for %s: %w", shortID(m.ID), err)
		for _, ci := range misses {
			if err := fn(ci, nil, err); err != nil {
				return err
			}
		}
		return nil
	}
	return chunk.ReadChunks(ctx, blob, misses, workers, func(ci int, data []float64, err error) error {
		if err != nil {
			return fn(ci, nil, fmt.Errorf("store: %s: %w", shortID(m.ID), err))
		}
		// The miss path: a slab of its own, counted and offered to the
		// cache. Other readers may now share it, so it is read-only.
		g, slab := m.Chunks[ci], append([]float64(nil), data...)
		s.decodes.Add(1)
		if s.opts.Hooks.OnDecode != nil {
			s.opts.Hooks.OnDecode(1)
		}
		s.cache.Insert(&slabEntry{key: chunkKey{ID: m.ID, Chunk: ci}, origin: g.Origin, dims: g.Dims, data: slab})
		return fn(ci, slab, nil)
	})
}

// Region is the read step for callers that want the cutout of extent dims
// anchored at origin as a slice of their own: chunks resident in the
// decoded cache are copied out with zero decode work, and only the missing
// intersecting frames are decoded (each located through the container's
// index footer), in parallel up to workers, then offered to the cache for
// the next reader. The first chunk error fails the read. The result is
// bit-identical to sperr.DecompressRegion on the stored container — the
// cache is a pure memoization.
func (s *Store) Region(ctx context.Context, id string, origin, dims [3]int, workers int) ([]float64, *RegionStats, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	if err := grid.CheckBox(origin, dims, m.Dims); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	l, err := s.Lookup(id, m.Intersecting(origin, dims))
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, dims[0]*dims[1]*dims[2])
	err = l.Read(ctx, workers, func(ci int, slab []float64, err error) error {
		if err == nil {
			g := m.Chunks[ci]
			o, d, _ := grid.Intersect(origin, dims, g.Origin, g.Dims)
			grid.CopyBox(out, origin, dims, slab, g.Origin, g.Dims, o, d)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, &RegionStats{Chunks: len(l.chunks), Hits: l.Hits, Misses: l.Misses, Decoded: l.Misses, Samples: len(out)}, nil
}

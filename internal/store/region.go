package store

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"sperr"
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
// and the misses are decoded through decodeChunk, up to workers at a time
// (<= 0: GOMAXPROCS), each offered to the cache. fn runs on the calling
// goroutine, one chunk at a time.
//
// A slab may be the cache's own memory, shared with other readers, so fn
// only reads it; it stays valid after eviction, because the cache drops
// slabs and never recycles them. fn's return value is the error policy:
// an error stops the read — nothing more is dispatched, and Read returns
// it once the decodes in flight have finished — while nil goes on to the
// next chunk, even after that chunk's error. A canceled ctx stops the
// read the same way.
func (l *Lookup) Read(ctx context.Context, workers int, fn func(ci int, slab []float64, err error) error) error {
	for k, e := range l.held {
		if e == nil {
			continue
		}
		if err := fn(l.chunks[k], e.data, nil); err != nil {
			return err
		}
	}
	if l.Misses == 0 {
		return nil
	}
	s, m := l.s, l.m
	blob, blobErr := os.ReadFile(s.blobPath(m.ID))
	if blobErr != nil {
		blobErr = fmt.Errorf("store: blob for %s: %w", shortID(m.ID), blobErr)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type decoded struct {
		ci   int
		data []float64
		err  error
	}
	// A slot per decode in flight: a finished decode never waits on fn.
	done := make(chan decoded, min(workers, l.Misses))
	var first error
	next, inflight := 0, 0 // next: the position to dispatch from
	for {
		for ; first == nil && inflight < workers && next < len(l.held); next++ {
			if l.held[next] != nil {
				continue
			}
			if first = ctx.Err(); first != nil {
				break
			}
			inflight++
			go func(ci int) {
				d := decoded{ci: ci, err: blobErr}
				if blobErr == nil {
					d.data, d.err = s.decodeChunk(blob, m, ci)
				}
				done <- d
			}(l.chunks[next])
		}
		if inflight == 0 {
			return first
		}
		d := <-done
		inflight--
		if first == nil {
			first = fn(d.ci, d.data, d.err)
		}
	}
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
			copyIntersect(out, origin, dims, g.Origin, g.Dims, slab)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, &RegionStats{Chunks: len(l.chunks), Hits: l.Hits, Misses: l.Misses, Decoded: l.Misses, Samples: len(out)}, nil
}

// decodeChunk is the one miss path: decode chunk ci of the volume's blob,
// count it, and offer the slab to the cache. The returned slab may now be
// shared with other readers, so it is read-only from here on.
func (s *Store) decodeChunk(blob []byte, m *Meta, ci int) ([]float64, error) {
	id, g := m.ID, m.Chunks[ci]
	// A region equal to exactly one chunk's box decodes exactly that frame
	// (chunks tile the volume disjointly), so the existing seekable region
	// path is the single-chunk decoder.
	data, err := sperr.DecompressRegionWorkers(blob, g.Origin, g.Dims, 1)
	if err != nil {
		return nil, fmt.Errorf("store: chunk %d of %s: %w", ci, shortID(id), err)
	}
	s.decodes.Add(1)
	if s.opts.Hooks.OnDecode != nil {
		s.opts.Hooks.OnDecode(1)
	}
	s.cache.Insert(&slabEntry{
		key:    chunkKey{ID: id, Chunk: ci},
		origin: g.Origin,
		dims:   g.Dims,
		data:   data,
	})
	return data, nil
}

// copyIntersect copies the overlap of the chunk box (cOrigin, cDims) into
// the destination cutout (dOrigin, dDims), both in volume coordinates.
func copyIntersect(dst []float64, dOrigin, dDims [3]int, cOrigin, cDims [3]int, src []float64) {
	if o, d, ok := grid.Intersect(dOrigin, dDims, cOrigin, cDims); ok {
		grid.CopyBox(dst, dOrigin, dDims, src, cOrigin, cDims, o, d)
	}
}

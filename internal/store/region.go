package store

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

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

// RegionPlan is the admission probe for a region read: what the cutout
// intersects and what is not resident right now. The plan is advisory —
// the cache can change between planning and reading — but the decode
// arena bound it implies (workers x MaxChunkSamples) holds regardless,
// because Region never decodes more than that many chunks at once.
type RegionPlan struct {
	Chunks          int
	MissingChunks   int
	MissingSamples  int64
	MaxChunkSamples int64
}

// intersects reports whether chunk box g overlaps the cutout.
func intersects(g ChunkGeom, origin, dims [3]int) bool {
	_, _, ok := grid.Intersect(origin, dims, g.Origin, g.Dims)
	return ok
}

// checkRegion validates a cutout against a volume's extent.
func checkRegion(m *Meta, origin, dims [3]int) error {
	for a := 0; a < 3; a++ {
		if dims[a] <= 0 {
			return fmt.Errorf("store: region dims must be positive, got %v", dims)
		}
		if origin[a] < 0 || origin[a]+dims[a] > m.Dims[a] {
			return fmt.Errorf("store: region %v@%v exceeds volume %v", dims, origin, m.Dims)
		}
	}
	return nil
}

// PlanRegion reports what serving the cutout would take right now:
// intersecting chunks, how many are not cached, and the largest chunk's
// sample count (the per-worker decode arena unit).
func (s *Store) PlanRegion(id string, origin, dims [3]int) (*RegionPlan, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, ErrNotFound
	}
	if err := checkRegion(m, origin, dims); err != nil {
		return nil, err
	}
	plan := &RegionPlan{}
	for i, g := range m.Chunks {
		if !intersects(g, origin, dims) {
			continue
		}
		plan.Chunks++
		n := int64(g.Dims[0]) * int64(g.Dims[1]) * int64(g.Dims[2])
		if n > plan.MaxChunkSamples {
			plan.MaxChunkSamples = n
		}
		if !s.cache.Contains(chunkKey{ID: id, Chunk: i}) {
			plan.MissingChunks++
			plan.MissingSamples += n
		}
	}
	return plan, nil
}

// Region serves the cutout of extent dims anchored at origin from the
// two-tier store: chunks resident in the decoded cache are copied out
// with zero decode work, and only the missing intersecting frames are
// decoded (each located through the container's index footer), in
// parallel up to workers, then offered to the cache for the next reader.
// The result is bit-identical to sperr.DecompressRegion on the stored
// container — the cache is a pure memoization.
func (s *Store) Region(ctx context.Context, id string, origin, dims [3]int, workers int) ([]float64, *RegionStats, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	if err := checkRegion(m, origin, dims); err != nil {
		return nil, nil, err
	}

	n := dims[0] * dims[1] * dims[2]
	out := make([]float64, n)
	st := &RegionStats{Samples: n}

	// Pass 1: serve what the decoded tier already holds.
	var missIdx []int
	for i, g := range m.Chunks {
		if !intersects(g, origin, dims) {
			continue
		}
		st.Chunks++
		if e := s.cache.Get(chunkKey{ID: id, Chunk: i}); e != nil {
			copyIntersect(out, origin, dims, e.origin, e.dims, e.data)
			st.Hits++
		} else {
			missIdx = append(missIdx, i)
			st.Misses++
		}
	}
	if s.opts.Hooks.OnHit != nil && st.Hits > 0 {
		s.opts.Hooks.OnHit(st.Hits)
	}
	if s.opts.Hooks.OnMiss != nil && st.Misses > 0 {
		s.opts.Hooks.OnMiss(st.Misses)
	}
	if len(missIdx) == 0 {
		return out, st, nil
	}

	// Pass 2: decode only the missing frames, bounded by workers.
	blob, err := os.ReadFile(s.blobPath(id))
	if err != nil {
		return nil, nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(missIdx) {
		workers = len(missIdx)
	}
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, workers)
		errMu   sync.Mutex
		first   error
		decoded atomic.Int64
	)
	setErr := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return first != nil
	}
	for _, ci := range missIdx {
		sem <- struct{}{}
		if ctx != nil && ctx.Err() != nil {
			setErr(ctx.Err())
		}
		// Once any decode has failed the read fails: dispatch no more.
		if failed() {
			<-sem
			break
		}
		wg.Add(1)
		go func(ci int) {
			defer func() { <-sem; wg.Done() }()
			data, err := s.decodeChunk(blob, id, m, ci)
			if err != nil {
				setErr(err)
				return
			}
			decoded.Add(1)
			// Chunks are disjoint, so concurrent copies write disjoint
			// ranges of out.
			copyIntersect(out, origin, dims, m.Chunks[ci].Origin, m.Chunks[ci].Dims, data)
		}(ci)
	}
	wg.Wait()
	st.Decoded = int(decoded.Load())
	if first != nil {
		return nil, nil, first
	}
	return out, st, nil
}

// decodeChunk is the one miss path: decode chunk ci of the volume's blob,
// count it, and offer the slab to the cache. The returned slab may now be
// shared with other readers, so it is read-only from here on.
func (s *Store) decodeChunk(blob []byte, id string, m *Meta, ci int) ([]float64, error) {
	g := m.Chunks[ci]
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

// ChunkSlab returns chunk ci's whole decoded slab (x-fastest over the
// chunk's own box, which Describe's geometry gives) without copying it: on
// a cache hit it is the resident slab itself, on a miss the slab that
// decodeChunk has just offered to the cache. Either way other readers may
// hold the same memory, so the caller must not write to it; it stays valid
// after eviction (the cache drops slabs, it never recycles them). Hit, miss
// and decode hooks fire as for a one-chunk Region.
func (s *Store) ChunkSlab(ctx context.Context, id string, ci int) ([]float64, error) {
	m, ok := s.Describe(id)
	if !ok {
		return nil, ErrNotFound
	}
	if ci < 0 || ci >= len(m.Chunks) {
		return nil, fmt.Errorf("store: chunk %d outside volume %s (%d chunks)", ci, shortID(id), len(m.Chunks))
	}
	if e := s.cache.Get(chunkKey{ID: id, Chunk: ci}); e != nil {
		if s.opts.Hooks.OnHit != nil {
			s.opts.Hooks.OnHit(1)
		}
		return e.data, nil
	}
	if s.opts.Hooks.OnMiss != nil {
		s.opts.Hooks.OnMiss(1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(s.blobPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	return s.decodeChunk(blob, id, m, ci)
}

// copyIntersect copies the overlap of the chunk box (cOrigin, cDims) into
// the destination cutout (dOrigin, dDims), both in volume coordinates.
func copyIntersect(dst []float64, dOrigin, dDims [3]int, cOrigin, cDims [3]int, src []float64) {
	if o, d, ok := grid.Intersect(dOrigin, dDims, cOrigin, cDims); ok {
		grid.CopyBox(dst, dOrigin, dDims, src, cOrigin, cDims, o, d)
	}
}

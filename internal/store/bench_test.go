package store

import (
	"context"
	"math/rand"
	"testing"
)

// benchStore ingests one 64^3 volume tiled into 32^3 chunks and returns
// the store plus the content address.
func benchStore(b *testing.B, cacheSamples int64) (*Store, string) {
	b.Helper()
	dims := [3]int{64, 64, 64}
	s := openTestStore(b, Options{CacheSamples: cacheSamples})
	c := makeContainer(b, dims, [3]int{32, 32, 32}, 1e-4, 9)
	m, _, err := s.Put(c)
	if err != nil {
		b.Fatal(err)
	}
	return s, m.ID
}

// BenchmarkRegionCached measures the decoded-slab hit path: after one
// warming read, every iteration serves the cutout purely by copying out
// of resident slabs — zero decode work. The cutout spans all 8 chunks.
func BenchmarkRegionCached(b *testing.B) {
	s, id := benchStore(b, 64*64*64)
	origin, dims := [3]int{8, 8, 8}, [3]int{48, 48, 48}
	if _, st, err := s.Region(context.Background(), id, origin, dims, 4); err != nil || st.Misses == 0 {
		b.Fatalf("warmup: err=%v stats=%+v", err, st)
	}
	before := s.Decodes()
	n := dims[0] * dims[1] * dims[2]
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := s.Region(context.Background(), id, origin, dims, 4)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached() {
			b.Fatalf("iteration decoded: %+v", st)
		}
	}
	b.StopTimer()
	if s.Decodes() != before {
		b.Fatalf("hit path decoded %d chunks", s.Decodes()-before)
	}
}

// BenchmarkRegionColdSkewed is the cold-cache witness: a 32^3 volume in
// 4x4x4 chunks behind a cache capped at an eighth of it, read by one
// goroutine (one decode worker) replaying a fixed-seed sequence of twenty
// boxes 3/8 of the edge, as the serving benchmark replays its region
// sequence. Uniform box origins skew chunk popularity toward the interior,
// which a frequency-aware cache can keep. decodes/op and hit-ratio are
// exact counts at a fixed -benchtime=Nx; the time is decode-bound.
func BenchmarkRegionColdSkewed(b *testing.B) {
	const n, edge, box = 32, 8, 12
	dims := [3]int{n, n, n}
	s := openTestStore(b, Options{CacheSamples: n * n * n / 8})
	m, _, err := s.Put(makeContainer(b, dims, [3]int{edge, edge, edge}, 1e-4, 9))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	origins := make([][3]int, 20)
	for i := range origins {
		origins[i] = [3]int{rng.Intn(n - box + 1), rng.Intn(n - box + 1), rng.Intn(n - box + 1)}
	}
	ctx, c := context.Background(), s.Cache()
	for _, o := range origins { // fill the cache once
		if _, _, err := s.Region(ctx, m.ID, o, [3]int{box, box, box}, 1); err != nil {
			b.Fatal(err)
		}
	}
	decodes, hits, misses := s.Decodes(), c.Hits(), c.Misses()
	b.SetBytes(box * box * box * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Region(ctx, m.ID, origins[i%len(origins)], [3]int{box, box, box}, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses = c.Hits()-hits, c.Misses()-misses
	b.ReportMetric(float64(s.Decodes()-decodes)/float64(b.N), "decodes/op")
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
}

// BenchmarkRegionUncached is the same cutout with caching disabled: every
// iteration re-decodes all intersecting chunk frames from the blob — the
// cost the cache removes.
func BenchmarkRegionUncached(b *testing.B) {
	s, id := benchStore(b, 0) // decoded tier disabled
	origin, dims := [3]int{8, 8, 8}, [3]int{48, 48, 48}
	n := dims[0] * dims[1] * dims[2]
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := s.Region(context.Background(), id, origin, dims, 4)
		if err != nil {
			b.Fatal(err)
		}
		if st.Decoded == 0 {
			b.Fatal("uncached iteration decoded nothing")
		}
	}
}

package store

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"sperr"
	"sperr/internal/obs"
)

func slab(id string, chunk, samples int) *slabEntry {
	return &slabEntry{
		key:  chunkKey{ID: id, Chunk: chunk},
		dims: [3]int{samples, 1, 1},
		data: make([]float64, samples),
	}
}

func TestSlabCacheLRUOrder(t *testing.T) {
	c := newSlabCache(300, nil, nil, obs.NewRegistry())
	for i := 0; i < 3; i++ {
		if !c.Insert(slab("v", i, 100)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	// Touch chunk 0 so chunk 1 is now the cold end.
	if c.Get(chunkKey{ID: "v", Chunk: 0}) == nil {
		t.Fatal("chunk 0 not resident")
	}
	if !c.Insert(slab("v", 3, 100)) {
		t.Fatal("insert over cap refused instead of evicting")
	}
	if c.Contains(chunkKey{ID: "v", Chunk: 1}) {
		t.Fatal("LRU evicted the wrong entry (chunk 1 should be gone)")
	}
	for _, want := range []int{0, 2, 3} {
		if !c.Contains(chunkKey{ID: "v", Chunk: want}) {
			t.Fatalf("chunk %d evicted, want resident", want)
		}
	}
	if c.Resident() != 300 || c.Evictions() != 1 {
		t.Fatalf("resident=%d evictions=%d", c.Resident(), c.Evictions())
	}
}

// TestSlabCacheScanResistant: a hot set read over and over survives a
// one-pass scan of more slabs than the cap holds. Each scanned slab is
// asked for once, less often than any hot one, so the admission gate
// declines it instead of evicting; a plain LRU would end the scan holding
// only scanned slabs.
func TestSlabCacheScanResistant(t *testing.T) {
	const hot, scan = 4, 12
	c := newSlabCache(hot*100, nil, nil, obs.NewRegistry())
	read := func(chunk int) {
		if c.Get(chunkKey{ID: "v", Chunk: chunk}) == nil {
			c.Insert(slab("v", chunk, 100))
		}
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < hot; i++ {
			read(i)
		}
	}
	for i := 0; i < scan; i++ {
		read(100 + i)
	}
	for i := 0; i < hot; i++ {
		if !c.Contains(chunkKey{ID: "v", Chunk: i}) {
			t.Fatalf("hot chunk %d flushed by a one-pass scan", i)
		}
	}
	if c.Evictions() != 0 || c.Declined() != scan {
		t.Fatalf("evictions %d declined %d, want 0 and %d", c.Evictions(), c.Declined(), scan)
	}
}

func TestSlabCacheRejectsOversized(t *testing.T) {
	c := newSlabCache(100, nil, nil, obs.NewRegistry())
	if c.Insert(slab("v", 0, 101)) {
		t.Fatal("entry larger than the cap was cached")
	}
	if c.Insert(slab("v", 1, 0)) {
		t.Fatal("empty entry was cached")
	}
	disabled := newSlabCache(0, nil, nil, obs.NewRegistry())
	if disabled.Insert(slab("v", 0, 1)) {
		t.Fatal("zero-cap cache accepted an entry")
	}
}

func TestSlabCacheChargeEvictsColdEnd(t *testing.T) {
	// External budget of 250 samples, cache cap 1000: the budget is the
	// binding constraint, so a fourth 100-sample slab must push out the
	// coldest resident rather than overspend.
	var budget atomicBudget
	budget.cap = 250
	c := newSlabCache(1000, budget.tryCharge, budget.release, obs.NewRegistry())
	for i := 0; i < 2; i++ {
		if !c.Insert(slab("v", i, 100)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if !c.Insert(slab("v", 2, 100)) {
		t.Fatal("insert refused instead of shedding for the budget")
	}
	if c.Contains(chunkKey{ID: "v", Chunk: 0}) {
		t.Fatal("cold entry survived a budget-driven eviction")
	}
	if got := budget.used.Load(); got != c.Resident() {
		t.Fatalf("budget charge %d != residency %d", got, c.Resident())
	}
	// When the budget is consumed elsewhere entirely, the insert is
	// declined (never overspends) once the cache has nothing left to shed.
	c.Purge()
	budget.used.Store(budget.cap)
	if c.Insert(slab("v", 9, 100)) {
		t.Fatal("insert overspent a fully consumed external budget")
	}
}

func TestSlabCacheShedAndInvalidate(t *testing.T) {
	var budget atomicBudget
	budget.cap = 1 << 20
	c := newSlabCache(1000, budget.tryCharge, budget.release, obs.NewRegistry())
	for i := 0; i < 5; i++ {
		c.Insert(slab("a", i, 100))
	}
	c.Insert(slab("b", 0, 100))
	if freed := c.Shed(150); freed < 150 {
		t.Fatalf("Shed(150) freed only %d", freed)
	}
	if c.Resident() != 400 {
		t.Fatalf("resident=%d after shed, want 400", c.Resident())
	}
	if n := c.Invalidate("a"); n != 3 {
		t.Fatalf("Invalidate dropped %d slabs, want 3", n)
	}
	if !c.Contains(chunkKey{ID: "b", Chunk: 0}) {
		t.Fatal("Invalidate dropped another volume's slab")
	}
	c.Purge()
	if c.Resident() != 0 || budget.used.Load() != 0 {
		t.Fatalf("Purge left residency %d, budget %d", c.Resident(), budget.used.Load())
	}
}

// atomicBudget is a CAS-based stand-in for the admission controller:
// tryCharge never lets used exceed cap, concurrently.
type atomicBudget struct {
	cap  int64
	used atomic.Int64
}

func (b *atomicBudget) tryCharge(n int64) bool {
	for {
		cur := b.used.Load()
		if cur+n > b.cap {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

func (b *atomicBudget) release(n int64) { b.used.Add(-n) }

// TestSlabCacheConcurrentHammer is the -race concurrency tier: concurrent
// region reads, ingests, invalidations and sheds against one cache, with
// every sample charged to a shared budget. Throughout and afterwards the
// residency gauge must never exceed the budget, and the final accounting
// must balance exactly. Runs under `make test-race` (go test -race ./...).
func TestSlabCacheConcurrentHammer(t *testing.T) {
	const (
		budgetCap = 2000
		workers   = 8
		iters     = 400
	)
	var budget atomicBudget
	budget.cap = budgetCap
	c := newSlabCache(budgetCap, budget.tryCharge, budget.release, obs.NewRegistry())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			vols := []string{"a", "b", "c"}
			for i := 0; i < iters; i++ {
				id := vols[next(len(vols))]
				chunk := next(16)
				switch next(6) {
				case 0:
					c.Insert(slab(id, chunk, 50+next(200)))
				case 1:
					c.Get(chunkKey{ID: id, Chunk: chunk})
				case 2:
					c.Contains(chunkKey{ID: id, Chunk: chunk})
				case 3:
					c.Shed(int64(next(300)))
				case 4:
					c.Invalidate(id)
				case 5:
					// The invariant probe itself, interleaved with mutation.
					if res := c.Resident(); res > budgetCap {
						t.Errorf("residency %d exceeds budget %d", res, budgetCap)
					}
					if used := budget.used.Load(); used > budgetCap {
						t.Errorf("budget charge %d exceeds cap %d", used, budgetCap)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The peak gauge is raised under the cache lock on every insert, so
	// it bounds every residency the hammer could have observed.
	if c.PeakResident() > budgetCap {
		t.Fatalf("peak residency %d exceeds budget %d", c.PeakResident(), budgetCap)
	}
	if got, want := budget.used.Load(), c.Resident(); got != want {
		t.Fatalf("final budget charge %d != residency %d (leak)", got, want)
	}
	c.Purge()
	if budget.used.Load() != 0 {
		t.Fatalf("budget not fully released after purge: %d", budget.used.Load())
	}
}

// TestStoreConcurrentReadsAndEvictions hammers the full store path under
// -race: concurrent Region reads over several volumes with a cache far too
// small to hold them all, so reads, inserts and evictions interleave while
// every read must still return exact bytes.
func TestStoreConcurrentReadsAndEvictions(t *testing.T) {
	var budget atomicBudget
	budget.cap = 1200 // ~2 of the 512-sample chunks
	s := openTestStore(t, Options{
		CacheSamples: budget.cap,
		Charge:       budget.tryCharge,
		Release:      budget.release,
	})
	dims := [3]int{16, 16, 8}
	const nvols = 3
	ids := make([]string, nvols)
	want := make([][]float64, nvols)
	for i := 0; i < nvols; i++ {
		ctr := makeContainer(t, dims, [3]int{8, 8, 8}, 1e-4, int64(40+i))
		m, _, err := s.Put(ctr)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
		w, err := sperr.DecompressRegion(ctr, [3]int{0, 0, 0}, dims)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				v := (w + i) % nvols
				got, _, err := s.Region(context.Background(), ids[v], [3]int{0, 0, 0}, dims, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if !equalFloats(got, want[v]) {
					t.Errorf("volume %d: concurrent read returned wrong data", v)
					return
				}
				if res := s.Cache().Resident(); res > budget.cap {
					t.Errorf("residency %d exceeds budget %d", res, budget.cap)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if budget.used.Load() > budget.cap {
		t.Fatalf("budget overspent: %d > %d", budget.used.Load(), budget.cap)
	}
	if s.Cache().Evictions() == 0 {
		t.Fatal("cache never evicted — budget was not binding, test proves nothing")
	}
	mustClean(t, s)
}

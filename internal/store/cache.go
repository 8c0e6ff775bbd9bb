package store

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
)

// chunkKey identifies one decoded slab: a volume's content address plus
// the chunk's container-order index.
type chunkKey struct {
	ID    string
	Chunk int
}

// hash mixes the key into 64 well-spread bits: FNV-1a over the volume id
// and chunk index, then the murmur3 finalizer so every 16-bit field of the
// result is usable as one sketch row's index.
func (k chunkKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.ID); i++ {
		h = (h ^ uint64(k.ID[i])) * 1099511628211
	}
	h = (h ^ uint64(k.Chunk)) * 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// slabEntry is one resident decoded chunk. Data is shared with readers
// and must be treated as immutable once inserted.
type slabEntry struct {
	key    chunkKey
	hash   uint64 // key.hash(), set by Insert
	origin [3]int
	dims   [3]int
	data   []float64
}

func (e *slabEntry) samples() int64 { return int64(len(e.data)) }

// SlabCache is the decoded hot tier: a chunk-granularity cache of decoded
// float64 slabs, bounded two ways. Its own capSamples cap bounds what the
// cache may hold at most, and every resident sample is additionally
// charged through the charge/release hooks against the shared admission
// budget — so decoded cache memory and in-flight decode memory compete
// for one ceiling, and an insert that the budget cannot absorb evicts
// from the cold end or is simply not cached (a cache is allowed to drop;
// it is never allowed to overspend).
//
// Eviction is least recently used, behind TinyLFU's admission gate
// (Einziger, Friedman & Manes, ACM TOS 2017): every Get is counted in a
// small frequency sketch, and an insert that would evict is admitted only
// if its slab was asked for at least as often as the LRU victim. Without
// the gate a stream of boxes touching more slabs than the cap holds
// flushes the popular slabs before they are read again; with it a one-off
// slab is served and dropped instead. Shed, Invalidate and Purge bypass
// the gate: they evict cold-first as a plain LRU.
//
// Lock ordering: SlabCache.mu may be held while calling charge/release
// (which take the admission lock); the admission controller only calls
// back into the cache (Shed) with its own lock released.
type SlabCache struct {
	capSamples int64
	charge     func(int64) bool
	release    func(int64)
	onEvict    func(int64)
	onResident func(int64)
	onDecline  func(int64)

	mu       sync.Mutex
	resident int64
	peak     int64
	ll       *list.List // front = most recently used
	entries  map[chunkKey]*list.Element
	freq     freqSketch

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	declined  atomic.Int64
}

func newSlabCache(capSamples int64, charge func(int64) bool, release func(int64),
	onEvict, onResident func(int64)) *SlabCache {
	return &SlabCache{
		capSamples: capSamples,
		charge:     charge,
		release:    release,
		onEvict:    onEvict,
		onResident: onResident,
		ll:         list.New(),
		entries:    make(map[chunkKey]*list.Element),
	}
}

// Get returns the resident slab for k (promoting it to most recently
// used) or nil, and counts the request, hit or miss, toward k's
// frequency. The returned entry's data is shared — read only.
func (c *SlabCache) Get(k chunkKey) *slabEntry {
	h := k.hash()
	c.mu.Lock()
	c.freq.add(h)
	el, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return el.Value.(*slabEntry)
}

// Contains reports residency without promoting (the planning probe).
func (c *SlabCache) Contains(k chunkKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// Insert makes e resident, evicting cold slabs as needed to fit both the
// cache's own cap and the external budget. It reports whether the entry
// is resident on return (false = not cacheable right now; the caller's
// decoded data is still valid, it just will not be reused). An insert
// that must evict passes the admission gate first, once per victim.
func (c *SlabCache) Insert(e *slabEntry) bool {
	n := e.samples()
	if n == 0 || c.capSamples <= 0 || n > c.capSamples {
		return false
	}
	e.hash = e.key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[e.key]; ok {
		return true // raced with another decode of the same chunk
	}
	c.freq.fit(c.capSamples / n)
	for c.resident+n > c.capSamples {
		if !c.evictForLocked(e) {
			return c.declineLocked(n)
		}
	}
	if c.charge != nil {
		for !c.charge(n) {
			// The shared budget is full (in-flight decodes or other
			// residents hold it): shed our own cold end and retry; if the
			// cache is empty the budget is busy elsewhere — skip caching.
			if !c.evictForLocked(e) {
				return c.declineLocked(n)
			}
		}
	}
	c.resident += n
	if c.resident > c.peak {
		c.peak = c.resident
	}
	c.entries[e.key] = c.ll.PushFront(e)
	if c.onResident != nil {
		c.onResident(c.resident)
	}
	return true
}

// evictForLocked is the admission gate: it drops the least recently used
// slab to make room for candidate e, unless the victim was asked for more
// often than e (ties admit, so equally popular slabs keep LRU order). It
// returns false, evicting nothing, when the gate refuses or the cache is
// empty.
func (c *SlabCache) evictForLocked(e *slabEntry) bool {
	el := c.ll.Back()
	if el == nil || c.freq.estimate(el.Value.(*slabEntry).hash) > c.freq.estimate(e.hash) {
		return false
	}
	c.removeLocked(el)
	return true
}

// declineLocked counts an insert turned away by the gate or a busy budget
// and returns false for Insert to pass on.
func (c *SlabCache) declineLocked(n int64) bool {
	c.declined.Add(1)
	if c.onDecline != nil {
		c.onDecline(n)
	}
	return false
}

// evictOldestLocked drops the least recently used slab, returning false
// when the cache is empty.
func (c *SlabCache) evictOldestLocked() bool {
	el := c.ll.Back()
	if el == nil {
		return false
	}
	c.removeLocked(el)
	return true
}

func (c *SlabCache) removeLocked(el *list.Element) {
	e := el.Value.(*slabEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	n := e.samples()
	c.resident -= n
	if c.release != nil {
		c.release(n)
	}
	c.evictions.Add(1)
	if c.onEvict != nil {
		c.onEvict(n)
	}
	if c.onResident != nil {
		c.onResident(c.resident)
	}
}

// Shed evicts from the cold end until at least need samples have been
// released (or the cache is empty), returning the samples freed. This is
// the admission controller's reclaim hook: a decode request that does not
// fit pushes the cache out of the shared budget, cold-first.
func (c *SlabCache) Shed(need int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < need {
		el := c.ll.Back()
		if el == nil {
			break
		}
		freed += el.Value.(*slabEntry).samples()
		c.removeLocked(el)
	}
	return freed
}

// Invalidate drops every resident slab of the given volume, returning how
// many were dropped.
func (c *SlabCache) Invalidate(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var drop []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*slabEntry).key.ID == id {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		c.removeLocked(el)
	}
	return len(drop)
}

// Purge evicts everything (releasing all budget charges).
func (c *SlabCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.evictOldestLocked() {
	}
}

// Resident returns the current residency in samples — the gauge the
// concurrency tier asserts never exceeds the budget.
func (c *SlabCache) Resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// PeakResident returns the residency high-water mark.
func (c *SlabCache) PeakResident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Cap returns the configured residency cap (0 = caching disabled).
func (c *SlabCache) Cap() int64 { return c.capSamples }

// Len returns the number of resident slabs.
func (c *SlabCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits, Misses, Evictions and Declined are cumulative event counters;
// Declined counts inserts turned away by the admission gate or a busy
// budget.
func (c *SlabCache) Hits() int64      { return c.hits.Load() }
func (c *SlabCache) Misses() int64    { return c.misses.Load() }
func (c *SlabCache) Evictions() int64 { return c.evictions.Load() }
func (c *SlabCache) Declined() int64  { return c.declined.Load() }

// freqSketch is TinyLFU's frequency estimator: a count-min sketch of
// sketchRows rows of width byte counters that saturate at 255. A key's
// estimate is the least of its row counters, so collisions can only
// overcount it. Every 10 x width recorded accesses all counters halve, so
// past popularity fades. The table never depends on how many distinct
// keys pass through: fit sizes it from the number of slabs the cap holds,
// and it is at most sketchRows x sketchMaxWidth bytes (256 KiB).
//
// Both sizes are generous because a region read touches more slabs than a
// small cache holds. Replaying serve_cold's traced reads (4^3 chunks, a
// cap of 8, boxes 3/8 of the edge) gives a hit ratio of 0.27 as built,
// 0.25 with 8 counters per slab (collisions lift rare corner chunks to
// the popular ones' counts), and 0.20 with the TinyLFU paper's window of
// 10 accesses per slab: 80 accesses span about seven reads there, so every
// count stays in single digits.
type freqSketch struct {
	ctr  []uint8 // sketchRows rows of width counters, row-major
	mask uint64  // width-1; width is a power of two
	n    uint64  // accesses since the last halving
}

const (
	sketchRows = 4
	// A row has 16 counters per slab the cap holds, at least
	// sketchMinWidth and at most sketchMaxWidth, which keeps each row's
	// index inside its own 16 bits of the key hash.
	sketchMinWidth = 64
	sketchMaxWidth = 1 << 16
)

// fit sizes the sketch for a cap holding slabs slabs of the size being
// inserted. It only grows: a larger slab count (a smaller slab) may widen
// the table, which starts the counts afresh and can happen at most
// log2(sketchMaxWidth/sketchMinWidth) times.
func (f *freqSketch) fit(slabs int64) {
	w := uint64(sketchMinWidth)
	for w < sketchMaxWidth && w < 16*uint64(slabs) {
		w <<= 1
	}
	if f.ctr == nil || w > f.mask+1 {
		f.ctr, f.mask, f.n = make([]uint8, sketchRows*w), w-1, 0
	}
}

// add records one access to the key with hash h.
func (f *freqSketch) add(h uint64) {
	if f.ctr == nil {
		return
	}
	w := f.mask + 1
	for r := uint64(0); r < sketchRows; r++ {
		if c := &f.ctr[r*w+(h>>(16*r))&f.mask]; *c < math.MaxUint8 {
			*c++
		}
	}
	if f.n++; f.n >= 10*w {
		for i := range f.ctr {
			f.ctr[i] >>= 1
		}
		f.n = 0
	}
}

// estimate returns the key's recent access count (0 before the first fit).
func (f *freqSketch) estimate(h uint64) uint8 {
	if f.ctr == nil {
		return 0
	}
	w := f.mask + 1
	est := uint8(math.MaxUint8)
	for r := uint64(0); r < sketchRows; r++ {
		est = min(est, f.ctr[r*w+(h>>(16*r))&f.mask])
	}
	return est
}

package chunk

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

// TestDecodeLoopStopsAfterError: once fn returns an error, the decode loop
// starts no further decode and calls fn no more, and it returns that
// error. fn never runs concurrently with itself. Salvage, on the same
// loop, stops at its callback's first error too: it used to run the
// callback for every chunk the other worker went on to drain.
func TestDecodeLoopStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		var started, inFn atomic.Int64
		calls, failed := 0, false
		err := decodeEach(context.Background(), 64, workers, func(k int, _ *codec.Scratch) ([]float64, error) {
			started.Add(1)
			if k == 3 {
				return nil, boom
			}
			return []float64{float64(k)}, nil
		}, func(k int, data []float64, err error) error {
			if inFn.Add(1) != 1 {
				t.Errorf("workers %d: fn ran concurrently", workers)
			}
			defer inFn.Add(-1)
			if failed {
				t.Errorf("workers %d: fn called for chunk %d after its error", workers, k)
			}
			calls++
			if err != nil {
				failed = true
				return err
			}
			if data[0] != float64(k) {
				t.Errorf("workers %d: chunk %d got chunk %v's data", workers, k, data[0])
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: err %v, want the callback's", workers, err)
		}
		// Up to workers decodes are in flight, the failed one included, so
		// a loop that dispatched nothing after the error started at most
		// the delivered chunks plus workers-1 more.
		if got := started.Load(); got > int64(calls+workers-1) {
			t.Fatalf("workers %d: %d decodes started for %d delivered", workers, got, calls)
		}
	}

	stream, _, err := Compress(testVolume(grid.D3(32, 32, 32), 5), Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.1},
		ChunkDims: grid.D3(8, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if _, err := Salvage(stream, 0, 2, func(int, grid.Chunk, []float64) error {
		calls++
		return boom
	}); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("Salvage: err %v after %d callbacks, want the callback's after 1", err, calls)
	}
}

// TestRegionRefusesStubsBeforeAllocating: a region over a shard's stub
// frames fails as corrupt from the index, before the output is allocated.
// An all-stub shard of 128³ in 32³ chunks (1 624 bytes) used to allocate
// the 16 MiB region first.
func TestRegionRefusesStubsBeforeAllocating(t *testing.T) {
	stream, _, err := Compress(grid.NewVolume(grid.D3(128, 128, 128)), Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 1e-3},
		ChunkDims: grid.D3(32, 32, 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := SliceShard(stream, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecompressRegion(shard, 0, 0, 0, grid.D3(128, 128, 128), 2)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-stub shard: err %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("all-stub shard of %d bytes: refusing it allocated %d bytes", len(shard), grew)
	}
}

// TestDecodeLoopKeepsCallbackOnStack: decodeEach's callback does not
// escape, so a caller's closure over its locals costs no allocation. A
// pipe that stored its callback leaked it to the heap with the arenas it
// hands on, which cost every hot sperrd store read one allocation: the
// store's read closure reaches this loop. Zero chunks isolate the loop's
// own bill, which a closure over a local must not add to.
func TestDecodeLoopKeepsCallbackOnStack(t *testing.T) {
	hits := 0
	closure := testing.AllocsPerRun(100, func() {
		_ = decodeEach(context.Background(), 0, 2, nil, func(int, []float64, error) error {
			hits++
			return nil
		})
	})
	static := testing.AllocsPerRun(100, func() {
		_ = decodeEach(context.Background(), 0, 2, nil, func(int, []float64, error) error { return nil })
	})
	if closure != static {
		t.Fatalf("%v allocations per empty decode loop with a closure over a local, %v without", closure, static)
	}
}

// TestPipeBoundsJobsInFlight: the pipe runs at most workers jobs at once,
// hands every result to its callback on the dispatching goroutine one at
// a time, and counts the samples of the jobs in flight; a done ctx stops
// dispatch and is wait's error.
func TestPipeBoundsJobsInFlight(t *testing.T) {
	const n, samples = 40, 7
	for _, workers := range []int{1, 2, 4} {
		var running, most atomic.Int64
		seen := make([]bool, n)
		inFn := false
		p := newPipe[int](context.Background(), workers, n)
		fn := func(k int) error {
			if inFn {
				t.Errorf("workers %d: callbacks overlap", workers)
			}
			inFn = true
			defer func() { inFn = false }()
			if seen[k] {
				t.Errorf("workers %d: job %d delivered twice", workers, k)
			}
			seen[k] = true
			return nil
		}
		for k := 0; k < n; k++ {
			ws := p.slot(fn)
			if ws == nil {
				t.Fatalf("workers %d: pipe stopped at job %d", workers, k)
			}
			p.submit(ws, samples, func(*workerScratch) int {
				cur := running.Add(1)
				for m := most.Load(); cur > m && !most.CompareAndSwap(m, cur); m = most.Load() {
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				return k
			})
		}
		if err := p.wait(fn); err != nil {
			t.Fatal(err)
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("workers %d: job %d never delivered", workers, k)
			}
		}
		if got := most.Load(); got > int64(workers) {
			t.Fatalf("workers %d: %d jobs ran at once", workers, got)
		}
		if p.peak == 0 || p.peak > workers*samples || p.samples != 0 {
			t.Fatalf("workers %d: peak %d, %d left in flight; want 1..%d and 0",
				workers, p.peak, p.samples, workers*samples)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	p := newPipe[int](ctx, 2, n)
	fn := func(int) error {
		if delivered++; delivered == 3 {
			cancel()
		}
		return nil
	}
	submitted := 0
	for k := 0; k < n; k++ {
		ws := p.slot(fn)
		if ws == nil {
			break
		}
		submitted++
		p.submit(ws, 0, func(*workerScratch) int { return k })
	}
	if err := p.wait(fn); !errors.Is(err, context.Canceled) || delivered != 3 || submitted > 4 {
		t.Fatalf("cancelled at the third result: err %v, %d delivered, %d submitted", err, delivered, submitted)
	}
}

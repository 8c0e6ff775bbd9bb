package sperr

import (
	"bytes"
	"sync"
	"testing"
)

// The chunk pipeline promises byte-identical output streams regardless of
// Workers: chunks are assembled in index order no matter which worker
// finishes first, and the pooled scratch path encodes exactly what the
// fresh path would. These tests run under `go test -race` (see
// `make test-race`) so the worker pool is exercised for data races as
// well as for determinism.

func compressAt(t *testing.T, data []float64, dims [3]int, workers int) ([]byte, *Stats) {
	t.Helper()
	stream, st, err := CompressPWE(data, dims, 1e-3, &Options{
		ChunkDims: [3]int{16, 16, 16},
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return stream, st
}

func TestStreamsIdenticalAcrossWorkers(t *testing.T) {
	dims := [3]int{40, 33, 21} // 3x3x2 = 18 chunks of at most 16^3, many remainders
	data := demoField(dims[0], dims[1], dims[2], 3)

	ref, refStats := compressAt(t, data, dims, 1)
	for _, workers := range []int{2, 8} {
		stream, st := compressAt(t, data, dims, workers)
		if !bytes.Equal(stream, ref) {
			t.Errorf("workers=%d: stream differs from workers=1 (%d vs %d bytes)",
				workers, len(stream), len(ref))
		}
		// Every non-timing Stats field must be reproducible too.
		if st.CompressedBytes != refStats.CompressedBytes ||
			st.NumPoints != refStats.NumPoints ||
			st.NumChunks != refStats.NumChunks ||
			st.NumOutliers != refStats.NumOutliers ||
			st.SpeckBits != refStats.SpeckBits ||
			st.OutlierBits != refStats.OutlierBits ||
			st.BPP != refStats.BPP {
			t.Errorf("workers=%d: stats differ: %+v vs %+v", workers, st, refStats)
		}
	}

	// The decoded data must be independent of decode-side parallelism and
	// of arena reuse across repeated calls.
	first, fdims, err := Decompress(ref)
	if err != nil {
		t.Fatal(err)
	}
	if fdims != dims {
		t.Fatalf("dims %v, want %v", fdims, dims)
	}
	for round := 0; round < 3; round++ {
		again, _, err := Decompress(ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("round %d: decode differs at %d: %g vs %g", round, i, first[i], again[i])
			}
		}
	}
}

// With more workers than chunks, the surplus workers idle: Workers counts
// chunks in flight and nothing else. The test and its comments predate
// that, when surplus workers split the passes inside each chunk; it now
// pins that a budget above the chunk count changes neither the stream nor
// the decode.
func TestStreamsIdenticalWithIntraChunkThreads(t *testing.T) {
	dims := [3]int{40, 33, 21}
	data := demoField(dims[0], dims[1], dims[2], 5)

	// One chunk spanning the whole volume: any Workers > 1 becomes pure
	// intra-chunk parallelism.
	one := func(workers int) []byte {
		t.Helper()
		stream, _, err := CompressPWE(data, dims, 1e-3, &Options{
			ChunkDims: dims,
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stream
	}
	ref := one(1)
	for _, workers := range []int{2, 3, 8, 16} {
		if stream := one(workers); !bytes.Equal(stream, ref) {
			t.Errorf("workers=%d: intra-chunk threaded stream differs (%d vs %d bytes)",
				workers, len(stream), len(ref))
		}
	}

	// Few chunks, many workers: inter- and intra-chunk parallelism mix.
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{
		ChunkDims: [3]int{32, 32, 32}, // 2x2x1 = 4 chunks
		Workers:   16,                 // 4 intra threads per chunk worker
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := CompressPWE(data, dims, 1e-3, &Options{
		ChunkDims: [3]int{32, 32, 32},
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, serial) {
		t.Error("mixed inter/intra-chunk parallel stream differs from serial")
	}

	want, _, err := Decompress(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, _, err := DecompressWorkers(ref, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: threaded decode differs at %d", workers, i)
			}
		}
	}
}

// Instrumentation events must arrive in chunk-index order at any
// parallelism, with per-chunk sizes that add up to the real stream.
func TestInstrumentEventOrdering(t *testing.T) {
	dims := [3]int{40, 33, 21}
	data := demoField(dims[0], dims[1], dims[2], 7)
	for _, workers := range []int{1, 2, 8} {
		var events []ChunkEvent
		stream, st, err := CompressPWE(data, dims, 1e-3, &Options{
			ChunkDims:  [3]int{16, 16, 16},
			Workers:    workers,
			Instrument: func(e ChunkEvent) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != st.NumChunks {
			t.Fatalf("workers=%d: %d events for %d chunks", workers, len(events), st.NumChunks)
		}
		var bytesIn, bytesOut, outliers int
		for i, e := range events {
			if e.Index != i {
				t.Fatalf("workers=%d: event %d has index %d (out of order)", workers, i, e.Index)
			}
			if e.BytesIn != e.Dims[0]*e.Dims[1]*e.Dims[2]*8 {
				t.Errorf("event %d: BytesIn %d does not match dims %v", i, e.BytesIn, e.Dims)
			}
			if e.WallTime <= 0 {
				t.Errorf("event %d: non-positive wall time", i)
			}
			bytesIn += e.BytesIn
			bytesOut += e.BytesOut
			outliers += e.NumOutliers
		}
		if bytesIn != len(data)*8 {
			t.Errorf("workers=%d: events cover %d input bytes, want %d", workers, bytesIn, len(data)*8)
		}
		if bytesOut >= len(stream) {
			t.Errorf("workers=%d: per-chunk output %d not below container size %d",
				workers, bytesOut, len(stream))
		}
		if outliers != st.NumOutliers {
			t.Errorf("workers=%d: events count %d outliers, stats say %d", workers, outliers, st.NumOutliers)
		}
	}
}

// Concurrent compressions and decompressions share the package-level
// scratch pool; under -race this verifies arenas are never shared between
// live pipelines.
func TestConcurrentPipelinesShareScratchPool(t *testing.T) {
	dims := [3]int{24, 19, 11}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			data := demoField(dims[0], dims[1], dims[2], seed)
			stream, _, err := CompressPWE(data, dims, 1e-2, &Options{
				ChunkDims: [3]int{8, 8, 8},
				Workers:   2,
			})
			if err != nil {
				t.Error(err)
				return
			}
			rec, _, err := Decompress(stream)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range data {
				if d := rec[i] - data[i]; d > 1e-2*(1+1e-9) || d < -1e-2*(1+1e-9) {
					t.Errorf("seed %d: PWE violated at %d", seed, i)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

package sperr

// Tests of the streaming Encoder/Decoder engine: byte-equivalence with
// the one-shot wrappers at every Write granularity and worker count,
// bounded in-flight memory, v2 corruption handling, and Reset reuse.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func streamTestInput() ([]float64, [3]int) {
	return demoField(40, 30, 20, 11), [3]int{40, 30, 20}
}

// TestEncoderMatchesOneShot: feeding the Encoder in any granularity, at
// any worker count, must produce the exact bytes of the one-shot wrapper.
func TestEncoderMatchesOneShot(t *testing.T) {
	data, dims := streamTestInput()
	opts := &Options{ChunkDims: [3]int{16, 16, 16}}
	want, _, err := CompressPWE(data, dims, 1e-3, opts)
	if err != nil {
		t.Fatal(err)
	}
	grains := map[string]int{
		"whole volume": len(data),
		"one slab":     dims[0] * dims[1] * 16,
		"one plane":    dims[0] * dims[1],
		"one row":      dims[0],
		"ragged 1009":  1009,
		"ragged 7":     7,
	}
	for name, grain := range grains {
		for _, workers := range []int{1, 2, 7} {
			var buf bytes.Buffer
			o := *opts
			o.Workers = workers
			enc, err := NewEncoderPWE(&buf, dims, 1e-3, &o)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(data); off += grain {
				end := off + grain
				if end > len(data) {
					end = len(data)
				}
				if _, err := enc.Write(data[off:end]); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s workers=%d: stream differs from one-shot (%d vs %d bytes)",
					name, workers, buf.Len(), len(want))
			}
			if st := enc.Stats(); st == nil || st.CompressedBytes != len(want) {
				t.Fatalf("%s workers=%d: stats %+v", name, workers, enc.Stats())
			}
		}
	}
}

// TestEncoderReset: a Reset Encoder reuses its state and still produces
// identical bytes.
func TestEncoderReset(t *testing.T) {
	data, dims := streamTestInput()
	opts := &Options{ChunkDims: [3]int{16, 16, 16}, Workers: 3}
	var first, second bytes.Buffer
	enc, err := NewEncoderPWE(&first, dims, 1e-3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Reset(&second, dims); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Reset encoder produced different bytes")
	}
}

// TestEncoderShortFeed: closing before the declared volume is fed must
// fail, not emit a truncated container.
func TestEncoderShortFeed(t *testing.T) {
	data, dims := streamTestInput()
	var buf bytes.Buffer
	enc, err := NewEncoderPWE(&buf, dims, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil {
		t.Fatal("Close accepted a half-fed volume")
	}
	// Overfeeding must fail too.
	enc2, err := NewEncoderPWE(&buf, dims, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc2.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := enc2.Write(data[:1]); err == nil {
		t.Fatal("Write accepted samples beyond the volume")
	}
	enc2.Close()
}

// TestDecoderMatchesOneShot: the streaming Decoder reconstructs exactly
// what the one-shot Decompress does, at several worker budgets.
func TestDecoderMatchesOneShot(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	want, wdims, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		dec, err := NewDecoder(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		dec.SetWorkers(workers)
		got, gdims, err := dec.DecodeAll()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gdims != wdims {
			t.Fatalf("workers=%d: dims %v vs %v", workers, gdims, wdims)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d differs", workers, i)
			}
		}
	}
}

// TestDecoderBoundedMemory: the streaming decode must hold at most
// workers x chunk size decoded samples in flight — the tentpole's
// bounded-memory guarantee, asserted via the engine's own instrumentation.
func TestDecoderBoundedMemory(t *testing.T) {
	data, dims := streamTestInput() // 40x30x20 over 16^3 chunks: 12 chunks
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	const chunkSamples = 16 * 16 * 16
	for _, workers := range []int{1, 2, 4} {
		dec, err := NewDecoder(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		dec.SetWorkers(workers)
		if err := dec.ForEachChunk(func(DecodedChunk) error { return nil }); err != nil {
			t.Fatal(err)
		}
		peak := dec.PeakInFlightSamples()
		if peak == 0 {
			t.Fatalf("workers=%d: peak accounting missing", workers)
		}
		if bound := workers * chunkSamples; peak > bound {
			t.Fatalf("workers=%d: peak %d samples in flight exceeds bound %d",
				workers, peak, bound)
		}
	}
}

// TestEncoderBoundedMemory is the encode-side counterpart: chunk samples
// held in worker arenas never exceed workers x chunk size.
func TestEncoderBoundedMemory(t *testing.T) {
	data, dims := streamTestInput()
	const chunkSamples = 16 * 16 * 16
	for _, workers := range []int{1, 3} {
		var buf bytes.Buffer
		enc, err := NewEncoderPWE(&buf, dims, 1e-3, &Options{
			ChunkDims: [3]int{16, 16, 16}, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		peak := enc.PeakInFlightSamples()
		if peak == 0 {
			t.Fatalf("workers=%d: peak accounting missing", workers)
		}
		if bound := workers * chunkSamples; peak > bound {
			t.Fatalf("workers=%d: peak %d samples exceeds bound %d", workers, peak, bound)
		}
	}
}

// TestDecoderChunkDelivery: ForEachChunk visits every chunk exactly once
// with correct geometry, and the delivered samples satisfy the PWE bound.
func TestDecoderChunkDelivery(t *testing.T) {
	data, dims := streamTestInput()
	tol := 1e-3
	stream, _, err := CompressPWE(data, dims, tol, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if dec.FormatVersion() != 2 {
		t.Fatalf("fresh stream is version %d, want 2", dec.FormatVersion())
	}
	if dec.NumChunks() != 12 {
		t.Fatalf("NumChunks = %d, want 12", dec.NumChunks())
	}
	seen := make([]bool, dec.NumChunks())
	var mu sync.Mutex
	err = dec.ForEachChunk(func(ch DecodedChunk) error {
		if len(ch.Data) != ch.Dims[0]*ch.Dims[1]*ch.Dims[2] {
			t.Errorf("chunk %d: %d samples for %v", ch.Index, len(ch.Data), ch.Dims)
		}
		for z := 0; z < ch.Dims[2]; z++ {
			for y := 0; y < ch.Dims[1]; y++ {
				for x := 0; x < ch.Dims[0]; x++ {
					got := ch.Data[(z*ch.Dims[1]+y)*ch.Dims[0]+x]
					want := data[((ch.Origin[2]+z)*dims[1]+ch.Origin[1]+y)*dims[0]+ch.Origin[0]+x]
					if math.Abs(got-want) > tol*(1+1e-9) {
						t.Errorf("chunk %d: tolerance violated at (%d,%d,%d)", ch.Index, x, y, z)
						return nil
					}
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[ch.Index] {
			t.Errorf("chunk %d delivered twice", ch.Index)
		}
		seen[ch.Index] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("chunk %d never delivered", i)
		}
	}
	// A consumed Decoder must refuse a second pass.
	if err := dec.ForEachChunk(func(DecodedChunk) error { return nil }); err == nil {
		t.Fatal("second ForEachChunk succeeded")
	}
}

// TestV2CorruptionDetected: frame truncation, payload damage, and index
// damage must all surface as ErrCorrupt — never a panic or a silent
// wrong answer.
func TestV2CorruptionDetected(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(pos int, mask byte) []byte {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= mask
		return mut
	}
	cases := map[string][]byte{
		"truncated mid-frame":    stream[:60],
		"truncated before index": stream[:len(stream)-30],
		"flipped payload bit":    mutate(50, 0x10),
		"flipped index magic":    mutate(len(stream)-1, 0x01),
		"flipped index offset":   mutate(len(stream)-12, 0x01),
		"flipped index body":     mutate(len(stream)-40, 0x01),
	}
	for name, in := range cases {
		if _, _, err := Decompress(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress returned %v, want ErrCorrupt", name, err)
		}
		dec, err := NewDecoder(bytes.NewReader(in))
		if err == nil {
			err = dec.ForEachChunk(func(DecodedChunk) error { return nil })
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: streaming decode returned %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDescribeSkipsFramesOnV2: Describe answers from the header and index
// footer alone, so damage confined to a frame payload must not disturb it
// — the structural proof that v2 inspection is header/footer-only.
func TestDescribeSkipsFramesOnV2(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Describe(stream)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Version != 2 || len(clean.FrameBytes) != clean.NumChunks {
		t.Fatalf("Describe: %+v", clean)
	}
	var total int
	for _, n := range clean.FrameBytes {
		total += n
	}
	if total <= 0 || total >= clean.CompressedBytes {
		t.Fatalf("frame bytes %d vs container %d", total, clean.CompressedBytes)
	}
	// Damage a payload byte mid-frame: Decompress must reject it, Describe
	// must not even notice.
	mut := append([]byte(nil), stream...)
	mut[60] ^= 0x40
	if _, _, err := Decompress(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload damage: Decompress returned %v", err)
	}
	dirty, err := Describe(mut)
	if err != nil {
		t.Fatalf("Describe touched a frame payload: %v", err)
	}
	if dirty.Mode != clean.Mode || dirty.SpeckBits != clean.SpeckBits {
		t.Fatalf("Describe drifted under payload damage: %+v vs %+v", dirty, clean)
	}
}

// TestRegionDecodesOnDamagedV2: region decode must succeed when the
// damage sits in a frame the region never touches — lazy per-frame
// verification is what makes index-seek decoding pay off.
func TestRegionDecodesOnDamagedV2(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0's frame starts right after the 36-byte header; damage it.
	mut := append([]byte(nil), stream...)
	mut[60] ^= 0x40
	// A region inside the last chunk (origin 32,16,16) avoids chunk 0.
	if _, err := DecompressRegion(mut, [3]int{33, 17, 17}, [3]int{4, 4, 2}); err != nil {
		t.Fatalf("region avoiding the damaged chunk failed: %v", err)
	}
	// A region inside chunk 0 must hit the checksum.
	if _, err := DecompressRegion(mut, [3]int{0, 0, 0}, [3]int{4, 4, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("region in the damaged chunk returned %v, want ErrCorrupt", err)
	}
}

// TestForEachChunkSerial: ForEachChunk calls its callback on the caller's
// goroutine, one chunk at a time, at any worker count, so a callback may
// use unguarded state. It sleeps to give overlapping calls time to show.
func TestForEachChunkSerial(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dec.SetWorkers(4)
	caller := goroutineID()
	var inFn atomic.Int64
	calls := 0
	err = dec.ForEachChunk(func(DecodedChunk) error {
		if inFn.Add(1) != 1 {
			t.Error("callbacks overlap")
		}
		defer inFn.Add(-1)
		if id := goroutineID(); id != caller {
			t.Errorf("callback on goroutine %s, ForEachChunk called on %s", id, caller)
		}
		calls++
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || calls != dec.NumChunks() {
		t.Fatalf("err %v after %d of %d callbacks", err, calls, dec.NumChunks())
	}
}

// TestParallelChunkDelivery: ForEachChunkParallel visits every chunk once,
// with the samples ForEachChunk delivers, and runs its callback on the
// decode goroutines: never the caller's, overlapping, at most workers at
// once. After a callback error no further call starts that was not
// already decoding.
func TestParallelChunkDelivery(t *testing.T) {
	data, dims := streamTestInput()
	stream, _, err := CompressPWE(data, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	dec, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dec.SetWorkers(workers)
	caller := goroutineID()
	got := make([]float64, len(want))
	var running, most, calls atomic.Int64
	err = dec.ForEachChunkParallel(func(ch DecodedChunk) error {
		cur := running.Add(1)
		defer running.Add(-1)
		for m := most.Load(); cur > m && !most.CompareAndSwap(m, cur); m = most.Load() {
		}
		if id := goroutineID(); id == caller {
			t.Errorf("chunk %d delivered on the calling goroutine", ch.Index)
		}
		calls.Add(1)
		nx, ny := ch.Dims[0], ch.Dims[1]
		for z := 0; z < ch.Dims[2]; z++ {
			for y := 0; y < ny; y++ {
				off := ((ch.Origin[2]+z)*dims[1]+ch.Origin[1]+y)*dims[0] + ch.Origin[0]
				copy(got[off:off+nx], ch.Data[(z*ny+y)*nx:(z*ny+y+1)*nx])
			}
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil || int(calls.Load()) != dec.NumChunks() {
		t.Fatalf("err %v after %d of %d callbacks", err, calls.Load(), dec.NumChunks())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v, Decompress gives %v", i, got[i], want[i])
		}
	}
	if m := most.Load(); m < 2 || m > workers {
		t.Fatalf("%d callbacks ran at once, want 2..%d", m, workers)
	}

	dec, err = NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dec.SetWorkers(2)
	stop := errors.New("stop")
	calls.Store(0)
	err = dec.ForEachChunkParallel(func(DecodedChunk) error {
		calls.Add(1)
		return stop
	})
	// The failing call and at most the one other decode in flight.
	if !errors.Is(err, stop) || calls.Load() > 2 {
		t.Fatalf("err %v after %d callbacks, want stop after at most 2", err, calls.Load())
	}
}

// goroutineID is the running goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestAbandonedEncoderLeaksNothing: an Encoder fed part of its volume and
// never closed leaves no goroutine behind once its chunk encodes finish,
// so it pins no pooled arena either.
func TestAbandonedEncoderLeaksNothing(t *testing.T) {
	data, dims := streamTestInput()
	slab := dims[0] * dims[1] * 16
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		enc, err := NewEncoderPWE(io.Discard, dims, 1e-3, &Options{ChunkDims: [3]int{16, 16, 16}, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Write(data[:slab]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before five abandoned encoders", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

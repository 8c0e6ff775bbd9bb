package chunk

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sperr/internal/codec"
	"sperr/internal/grid"
)

func testVolume(d grid.Dims, seed int64) *grid.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := grid.NewVolume(d)
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				v.Set(x, y, z, 10*math.Sin(0.2*float64(x))*math.Cos(0.15*float64(y))*
					math.Sin(0.1*float64(z)+0.5)+0.05*rng.NormFloat64())
			}
		}
	}
	return v
}

func maxAbsErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestRoundTripSingleChunk(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 32), 1)
	stream, st, err := Compress(v, Options{
		Params: codec.Params{Mode: codec.ModePWE, Tol: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Chunks) != 1 {
		t.Fatalf("expected 1 chunk, got %d", len(st.Chunks))
	}
	got, err := Decompress(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(v.Data, got.Data); e > 0.01*(1+1e-9) {
		t.Fatalf("max error %g > tol", e)
	}
}

func TestRoundTripMultiChunk(t *testing.T) {
	// 48^3 volume with 20^3 chunks: 3x3x3 = 27 chunks with remainders.
	v := testVolume(grid.D3(48, 48, 48), 2)
	tol := 0.02
	stream, st, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: tol},
		ChunkDims: grid.D3(20, 20, 20),
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Chunks) != 27 {
		t.Fatalf("expected 27 chunks, got %d", len(st.Chunks))
	}
	got, err := Decompress(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims != v.Dims {
		t.Fatalf("dims %v, want %v", got.Dims, v.Dims)
	}
	if e := maxAbsErr(v.Data, got.Data); e > tol*(1+1e-9) {
		t.Fatalf("max error %g > tol %g", e, tol)
	}
}

// Chunked and unchunked compression must both satisfy the tolerance; the
// reconstruction may differ but the guarantee cannot.
func TestChunkedVsUnchunkedGuarantee(t *testing.T) {
	v := testVolume(grid.D3(40, 40, 40), 3)
	tol := 0.005
	for _, cd := range []grid.Dims{{NX: 40, NY: 40, NZ: 40}, {NX: 16, NY: 16, NZ: 16}, {NX: 40, NY: 40, NZ: 8}} {
		stream, _, err := Compress(v, Options{
			Params:    codec.Params{Mode: codec.ModePWE, Tol: tol},
			ChunkDims: cd,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(stream, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxAbsErr(v.Data, got.Data); e > tol*(1+1e-9) {
			t.Fatalf("chunk %v: max error %g > tol", cd, e)
		}
	}
}

// Worker count must not change the output (determinism).
func TestWorkerCountDeterminism(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 16), 4)
	opts := func(w int) Options {
		return Options{
			Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.01},
			ChunkDims: grid.D3(16, 16, 16),
			Workers:   w,
		}
	}
	s1, _, err := Compress(v, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	s4, _, err := Compress(v, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s4) {
		t.Fatalf("stream lengths differ: %d vs %d", len(s1), len(s4))
	}
	for i := range s1 {
		if s1[i] != s4[i] {
			t.Fatalf("streams differ at byte %d", i)
		}
	}
}

func TestBPPModeChunked(t *testing.T) {
	v := testVolume(grid.D3(32, 32, 32), 5)
	bpp := 2.0
	stream, st, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModeBPP, BitsPerPoint: bpp},
		ChunkDims: grid.D3(16, 16, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.BPP(); got > bpp*1.2+0.5 {
		t.Errorf("achieved %g BPP for target %g", got, bpp)
	}
	if _, err := Decompress(stream, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptContainer(t *testing.T) {
	if _, err := Decompress(nil, 0); err == nil {
		t.Error("nil stream should fail")
	}
	if _, err := Decompress([]byte("not a container at all....."), 0); err == nil {
		t.Error("bad magic should fail")
	}
	v := testVolume(grid.D3(16, 16, 16), 6)
	stream, _, err := Compress(v, Options{Params: codec.Params{Mode: codec.ModePWE, Tol: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(stream[:len(stream)/2], 0); err == nil {
		t.Error("truncated container should fail")
	}
}

var errDiskFull = errors.New("disk full")

// failOnce fails exactly one Write call, its nth, and accepts every other:
// a disk that is full for one large frame and has room for the next.
type failOnce struct{ n, calls int }

func (w *failOnce) Write(p []byte) (int, error) {
	if w.calls++; w.calls == w.n {
		return 0, errDiskFull
	}
	return len(p), nil
}

// A frame write that fails while later frames wait in the reorder map
// must stay failed: nothing more reaches the stream, and Close reports it
// instead of writing a footer over a container with a hole in it.
func TestWriterKeepsFrameWriteError(t *testing.T) {
	opts := Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 1e-3},
		ChunkDims: grid.Dims{NX: 8, NY: 8, NZ: 8},
		Workers:   3,
	}
	// Write 1 is the fixed header, 2 frame 0's prefix, 3 its payload.
	w := &failOnce{n: 3}
	serial := opts
	serial.Workers = 1
	cw, err := NewWriter(w, grid.Dims{NX: 24, NY: 8, NZ: 8}, serial)
	if err != nil {
		t.Fatal(err)
	}
	// One encode at a time, so frames reach emit in the order they are
	// submitted: 2 and 1 wait in the reorder map while 0's write fails.
	for _, i := range []int{2, 1, 0} {
		ws := cw.pipe.slot(cw.emit)
		if ws == nil {
			t.Fatalf("pipe stopped before chunk %d", i)
		}
		cw.pipe.submit(ws, 0, func(*workerScratch) encResult {
			return encResult{Event: Event{Index: i}, frame: []byte{1, 2, 3}}
		})
	}
	if err := cw.pipe.wait(cw.emit); !errors.Is(err, errDiskFull) {
		t.Fatalf("pipe error after the failed frame: %v", err)
	}
	if w.calls != 3 {
		t.Fatalf("%d Write calls, want 3: frames followed the failed one", w.calls)
	}
	if err := cw.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close: %v, want the write error", err)
	}

	// End to end: whichever single Write fails, the caller hears of it.
	vol := testVolume(grid.Dims{NX: 24, NY: 16, NZ: 8}, 3)
	for n := 1; ; n++ {
		w := &failOnce{n: n}
		cw, err := NewWriter(w, vol.Dims, opts)
		if err == nil {
			if _, err = cw.Write(vol.Data); err == nil {
				err = cw.Close()
			} else {
				cw.Close()
			}
		}
		if w.calls < n {
			if err != nil {
				t.Fatalf("no Write failed, yet: %v", err)
			}
			break
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("Write call %d of %d failed, Writer reported: %v", n, w.calls, err)
		}
	}
}

func Test2DVolume(t *testing.T) {
	v := testVolume(grid.D2(64, 64), 7)
	stream, _, err := Compress(v, Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.01},
		ChunkDims: grid.D3(32, 32, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(v.Data, got.Data); e > 0.01*(1+1e-9) {
		t.Fatalf("max error %g", e)
	}
}

func TestSplitChunksGeometry(t *testing.T) {
	chunks := grid.SplitChunks(grid.D3(10, 10, 10), grid.D3(4, 4, 4))
	if len(chunks) != 27 {
		t.Fatalf("10^3 / 4^3 should give 27 chunks, got %d", len(chunks))
	}
	var pts int
	for _, c := range chunks {
		pts += c.Dims.Len()
	}
	if pts != 1000 {
		t.Fatalf("chunks cover %d points, want 1000", pts)
	}
}

func BenchmarkCompressChunked(b *testing.B) {
	v := testVolume(grid.D3(48, 48, 48), 1)
	opts := Options{
		Params:    codec.Params{Mode: codec.ModePWE, Tol: 0.01},
		ChunkDims: grid.D3(24, 24, 24),
	}
	b.SetBytes(int64(v.Dims.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(v, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// A chunk may hold at most codec.MaxChunkPoints samples (the SPECK
// encoder's octree limit): larger chunk dims are refused when the Writer
// starts, before the header is written or a sample is read.
func TestWriterRefusesOversizeChunks(t *testing.T) {
	var out countWriter
	p := codec.Params{Mode: codec.ModePWE, Tol: 1e-3}
	_, err := NewWriter(&out, grid.D3(1024, 1024, 256), Options{ChunkDims: grid.D3(1024, 1024, 256), Params: p})
	if !errors.Is(err, codec.ErrDims) || out != 0 {
		t.Fatalf("2^28-sample chunks: err %v, %d bytes written; want ErrDims before any output", err, out)
	}
	w, err := NewWriter(&out, grid.D3(1024, 1024, 128), Options{ChunkDims: grid.D3(1024, 1024, 128), Params: p})
	if err != nil {
		t.Fatalf("2^27-sample chunks: %v", err)
	}
	w.Close() // the volume was never fed; only the start matters here
}

type countWriter int

func (c *countWriter) Write(b []byte) (int, error) {
	*c += countWriter(len(b))
	return len(b), nil
}

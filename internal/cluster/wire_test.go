package cluster

// The wire half of the one-pass read path: frames go from a peer's
// connection into the sink without a sample slice in between, so these
// tests are about what happens when that connection lies or dies.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sperr"
)

// rowSink is a PieceSink that, like the server's band assembler, writes
// each row of a piece into the output as it is read — so a fetch that dies
// part-way really does leave half a piece behind — and counts how often
// each chunk's delivery was started.
type rowSink struct {
	origin, dims [3]int
	out          []float64

	mu     sync.Mutex
	starts map[int]int
}

func newRowSink(origin, dims [3]int) *rowSink {
	s := &rowSink{origin: origin, dims: dims, out: make([]float64, dims[0]*dims[1]*dims[2]), starts: make(map[int]int)}
	for i := range s.out {
		s.out[i] = math.Inf(1)
	}
	return s
}

func (s *rowSink) start(ci int) {
	s.mu.Lock()
	s.starts[ci]++
	s.mu.Unlock()
}

func (s *rowSink) row(h Hit, y, z int) []float64 {
	off := ((h.Origin[2]+z-s.origin[2])*s.dims[1]+h.Origin[1]+y-s.origin[1])*s.dims[0] + h.Origin[0] - s.origin[0]
	return s.out[off : off+h.Dims[0]]
}

func (s *rowSink) Slab(h Hit, so, sd [3]int, data []float64) error {
	s.start(h.Index)
	for z := 0; z < h.Dims[2]; z++ {
		for y := 0; y < h.Dims[1]; y++ {
			src := ((h.Origin[2]-so[2]+z)*sd[1]+h.Origin[1]-so[1]+y)*sd[0] + h.Origin[0] - so[0]
			copy(s.row(h, y, z), data[src:src+h.Dims[0]])
		}
	}
	return nil
}

func (s *rowSink) Wire(h Hit, r io.Reader) error {
	s.start(h.Index)
	for z := 0; z < h.Dims[2]; z++ {
		for y := 0; y < h.Dims[1]; y++ {
			if err := readSamples(r, s.row(h, y, z)); err != nil {
				return err
			}
		}
	}
	return nil
}

// cutTransport ends the body of the first peer chunk response it carries k
// bytes into frame j (or into the last frame, if there are fewer; k < 0
// counts back from the frame's end), the way a dying peer or a reset
// connection would.
type cutTransport struct {
	frame, k int

	mu       sync.Mutex
	cutChunk int // index of the chunk whose frame was cut; -1 before
}

func (ct *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || req.URL.Query().Get("chunks") == "" {
		return resp, err
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.cutChunk >= 0 {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	off, size := 0, 0
	for j := 0; ; j++ {
		size = chunkFrameHeaderSize + 8*int(binary.LittleEndian.Uint32(body[off+4:]))
		if j == ct.frame || off+size == len(body) {
			break
		}
		off += size
	}
	if ct.k < 0 {
		ct.k += size
	}
	ct.cutChunk = int(binary.LittleEndian.Uint32(body[off:]))
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:off+ct.k]), errReader{}))
	resp.ContentLength = -1
	return resp, nil
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset by test") }

// TestCutPeerBodyFailsOverWholePiece: wherever in a frame a peer's body
// ends — inside the header, after the first sample, in the middle of a
// sample, one byte short — the read fails over that chunk to its other
// replica, which rewrites the piece from its first row, and comes out
// byte-identical to the single-node decode. A cut past the header means
// the sink had started on the piece: it is started exactly once more.
func TestCutPeerBodyFailsOverWholePiece(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 31)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sperr.DecompressRegionWorkers(container, [3]int{}, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	roster := make(map[string]string)
	for i, p := range peers {
		roster[fmt.Sprintf("node-%c", 'a'+i)] = p.srv.URL
	}
	// Every chunk of this volume has several rows of 8 samples, so the cuts
	// are: in the header, after one sample, inside the sixth sample, and
	// one byte short of the whole frame.
	for _, k := range []int{3, chunkFrameHeaderSize + 8, chunkFrameHeaderSize + 8*5 + 3, -1} {
		ct := &cutTransport{frame: 1, k: k, cutChunk: -1}
		// A cluster per cut, so that no breaker remembers the last one.
		c, err := New(Config{Self: "node-a", Peers: roster, Timeout: 5 * time.Second,
			Replicas: 2, Client: &http.Client{Transport: ct}}, peers[0].st)
		if err != nil {
			t.Fatal(err)
		}
		sink := newRowSink([3]int{}, dims)
		rep, err := c.RegionTo(context.Background(), meta.ID, [3]int{}, dims, RegionOptions{Workers: 2, Fill: math.NaN()}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if ct.cutChunk < 0 {
			t.Fatalf("k=%d: no peer response was cut", k)
		}
		if len(rep.Skipped) != 0 || rep.FailedOver == 0 {
			t.Fatalf("k=%d: Skipped %v, FailedOver %d: want a clean failover", k, rep.Skipped, rep.FailedOver)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(sink.out[i]) {
				t.Fatalf("k=%d: sample %d differs from the single-node decode", k, i)
			}
		}
		for ci, n := range sink.starts {
			wantStarts := 1
			if ci == ct.cutChunk && ct.k >= chunkFrameHeaderSize {
				wantStarts = 2 // started, cut, started again on the replica
			}
			if n != wantStarts {
				t.Fatalf("k=%d: chunk %d (cut chunk %d) was started %d times, want %d", k, ci, ct.cutChunk, n, wantStarts)
			}
		}
		if len(sink.starts) != meta.NumChunks {
			t.Fatalf("k=%d: %d of %d chunks delivered", k, len(sink.starts), meta.NumChunks)
		}
	}
}

// goldenFrame is chunk 7's frame for the 2x2x2 box at (1,0,0) of a 3x2x2
// slab holding 1..12: u32 index | u32 count | f64 LE samples. The server's
// writer is pinned to the same bytes (TestChunkFrameGolden there), so a
// peer from before the one-pass path and one from after interoperate.
const goldenFrame = "0700000008000000" +
	"0000000000000040" + "0000000000000840" + // 2 3
	"0000000000001440" + "0000000000001840" + // 5 6
	"0000000000002040" + "0000000000002240" + // 8 9
	"0000000000002640" + "0000000000002840" // 11 12

func TestChunkFrameGolden(t *testing.T) {
	raw, err := hex.DecodeString(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	sink := newChunkSink(emitSink(func(p ChunkPiece) error {
		got = p.Samples
		return nil
	}))
	hs := []Hit{{Index: 7, Origin: [3]int{1, 0, 0}, Dims: [3]int{2, 2, 2}}}
	if err := readFrames(bytes.NewReader(raw), "peer", hs, sink); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5, 6, 8, 9, 11, 12}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("golden frame decoded to %v, want %v", got, want)
	}
}

// frame builds one wire frame with the given header fields and as many
// samples as count says.
func frame(index, count uint32) []byte {
	b := make([]byte, chunkFrameHeaderSize+8*int(count))
	binary.LittleEndian.PutUint32(b[0:], index)
	binary.LittleEndian.PutUint32(b[4:], count)
	for i := 0; i < int(count); i++ {
		binary.LittleEndian.PutUint64(b[chunkFrameHeaderSize+8*i:], math.Float64bits(float64(index)+float64(i)/64))
	}
	return b
}

// TestRepeatedFrameIsNotCompleteness: a peer that answers chunk 3 twice
// and chunk 4 never used to count as "every requested chunk delivered".
func TestRepeatedFrameIsNotCompleteness(t *testing.T) {
	hs := []Hit{{Index: 3, Dims: [3]int{2, 1, 1}}, {Index: 4, Dims: [3]int{2, 1, 1}}}
	for name, body := range map[string][]byte{
		"repeated":    append(frame(3, 2), frame(3, 2)...),
		"unrequested": append(frame(3, 2), frame(5, 2)...),
		"omitted":     frame(3, 2),
	} {
		sink := newChunkSink(emitSink(func(ChunkPiece) error { return nil }))
		if err := readFrames(bytes.NewReader(body), "peer", hs, sink); err == nil {
			t.Errorf("%s: stream accepted as a complete answer", name)
		}
		if sink.has(4) {
			t.Errorf("%s: chunk 4 counted as delivered", name)
		}
	}
}

// FuzzChunkFrames feeds arbitrary bytes to the coordinator as a peer's
// answer to a fixed request. Whatever they are: no panic; the sink is
// offered only requested chunks, each at most until it completes, and only
// frames whose count is the intersection's; a chunk is done only if all
// 8·n of its bytes arrived, and short bytes always leave it undone.
func FuzzChunkFrames(f *testing.F) {
	hs := []Hit{
		{Index: 2, Dims: [3]int{3, 2, 1}},
		{Index: 5, Dims: [3]int{1, 1, 1}},
		{Index: 9, Dims: [3]int{2, 2, 2}},
	}
	whole := append(append(frame(2, 6), frame(5, 1)...), frame(9, 8)...)
	f.Add(whole)
	f.Add(whole[:len(whole)-1])
	f.Add(whole[:chunkFrameHeaderSize+11])
	f.Add(append(frame(5, 1), frame(5, 1)...))
	f.Add(frame(2, 7))
	f.Add(frame(4, 1))
	f.Add(append([]byte{9, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, whole...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := &recordingSink{got: make(map[int]int)}
		sink := newChunkSink(rec)
		err := readFrames(bytes.NewReader(body), "peer", hs, sink)
		done := 0
		for _, h := range hs {
			if sink.done[h.Index] {
				done++
				if rec.got[h.Index] != 8*h.samples() {
					t.Fatalf("chunk %d done on %d bytes, want %d", h.Index, rec.got[h.Index], 8*h.samples())
				}
			}
		}
		if len(sink.done) != done {
			t.Fatalf("sink holds state for chunks outside the request: %v", sink.done)
		}
		for ci := range rec.got {
			if whole := rec.got[ci] == 8*hitOf(hs, ci).samples(); whole != sink.done[ci] {
				t.Fatalf("chunk %d: %d bytes arrived but done = %v (err: %v)", ci, rec.got[ci], sink.done[ci], err)
			}
		}
		if err == nil && done != len(hs) {
			t.Fatalf("stream accepted as complete with %d of %d chunks done", done, len(hs))
		}
	})
}

func hitOf(hs []Hit, ci int) Hit {
	for _, h := range hs {
		if h.Index == ci {
			return h
		}
	}
	panic(fmt.Sprintf("sink was offered unrequested chunk %d", ci))
}

// recordingSink counts the bytes it could read of each chunk's last
// delivery attempt.
type recordingSink struct{ got map[int]int }

func (s *recordingSink) Slab(Hit, [3]int, [3]int, []float64) error { panic("no local pieces here") }

func (s *recordingSink) Wire(h Hit, r io.Reader) error {
	n, err := io.Copy(io.Discard, r)
	s.got[h.Index] = int(n)
	return err
}

// lateSink is a rowSink that flags every delivery that starts or ends
// after the read it belongs to has returned: a late write into a finished
// response is what once panicked bufio under the benchmark.
type lateSink struct {
	*rowSink
	returned, late atomic.Bool
}

func (s *lateSink) check() {
	if s.returned.Load() {
		s.late.Store(true)
	}
}

func (s *lateSink) Slab(h Hit, so, sd [3]int, data []float64) error {
	s.check()
	defer s.check()
	return s.rowSink.Slab(h, so, sd, data)
}

func (s *lateSink) Wire(h Hit, r io.Reader) error {
	s.check()
	defer s.check()
	return s.rowSink.Wire(h, r)
}

// stallOnce makes the first chunk stream it serves send a frame header and
// three samples, then hang until release is closed.
type stallOnce struct {
	fired   atomic.Bool
	release chan struct{}
	exited  chan struct{} // closed when the stalled handler returns
}

func (s *stallOnce) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !s.fired.CompareAndSwap(false, true) {
			next.ServeHTTP(w, r)
			return
		}
		defer close(s.exited)
		next.ServeHTTP(&stallWriter{ResponseWriter: w, left: chunkFrameHeaderSize + 8*3, release: s.release}, r)
	})
}

type stallWriter struct {
	http.ResponseWriter
	left    int
	release <-chan struct{}
	stalled bool
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if w.stalled {
		return 0, errStalled
	}
	if len(p) <= w.left {
		w.left -= len(p)
		return w.ResponseWriter.Write(p)
	}
	n, _ := w.ResponseWriter.Write(p[:w.left])
	w.ResponseWriter.(http.Flusher).Flush()
	w.stalled = true
	<-w.release
	return n, errStalled
}

var errStalled = errors.New("stalled by test")

// TestNoSinkWriteAfterReturn: a peer that stops mid-frame and outlasts the
// per-attempt timeout has its chunks failed over, and RegionTo returns
// only once nothing can write into the caller's sink any more — the
// stalled request is over on the coordinator's side even though its
// handler is still running on the peer's.
func TestNoSinkWriteAfterReturn(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 37)
	clusters, peers := testClusterR(t, 3, 2)
	meta, _, err := clusters[0].Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sperr.DecompressRegionWorkers(container, [3]int{}, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate from a node that is not every chunk's primary, so that
	// rank 0 makes at least one remote fetch.
	self := 1
	for ci := 0; ci < meta.NumChunks; ci++ {
		if clusters[0].Owner(meta.ID, ci) != "node-a" {
			self = 0
		}
	}
	// Warm every cache, so that only the stalled stream nears the timeout.
	gather(t, clusters[self], meta.ID, [3]int{}, dims, math.NaN())

	stall := &stallOnce{release: make(chan struct{}), exited: make(chan struct{})}
	roster := make(map[string]string)
	for i, p := range peers {
		roster[fmt.Sprintf("node-%c", 'a'+i)] = p.srv.URL
		if i != self {
			p.srv.Config.Handler = stall.wrap(p.srv.Config.Handler)
		}
	}
	c, err := New(Config{Self: fmt.Sprintf("node-%c", 'a'+self), Peers: roster, Timeout: 100 * time.Millisecond, Replicas: 2}, peers[self].st)
	if err != nil {
		t.Fatal(err)
	}
	sink := &lateSink{rowSink: newRowSink([3]int{}, dims)}
	rep, err := c.RegionTo(context.Background(), meta.ID, [3]int{}, dims, RegionOptions{Workers: 2, Fill: math.NaN()}, sink)
	sink.returned.Store(true)
	close(stall.release)
	if !stall.fired.Load() {
		t.Fatal("no peer stream was stalled")
	}
	<-stall.exited
	if err != nil {
		t.Fatal(err)
	}
	if sink.late.Load() {
		t.Fatal("the sink was written after RegionTo returned")
	}
	if len(rep.Skipped) != 0 || rep.FailedOver == 0 {
		t.Fatalf("Skipped %v, FailedOver %d: want a clean failover past the stalled peer", rep.Skipped, rep.FailedOver)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(sink.out[i]) {
			t.Fatalf("sample %d differs from the single-node decode", i)
		}
	}
}

package cluster

// HTTP peer protocol client. The protocol is three verbs under
// /v1/internal/chunks/{id}:
//
//	PUT    body = shard container        -> 200/201
//	DELETE                               -> 204 (404 = already gone)
//	GET    ?region=x,y,z,nx,ny,nz&chunks=i,j,...
//	       -> stream of frames, one per servable chunk:
//	          u32 LE chunk index | u32 LE sample count | samples f64 LE
//
// The GET response is streamed frame-by-frame so the coordinator can
// hand each chunk to the assembler the moment it arrives; a peer that
// cannot serve a requested chunk simply omits its frame (the
// coordinator asks the chunk's next replica, then fills). Samples are
// raw float64 bits, so a gathered region is bit-identical to a local
// decode. A frame answers a requested index at most once and carries
// exactly the intersection's sample count; anything else is a protocol
// error that fails the fetch.
//
// Consumer contract. A frame's samples are not buffered here: the
// PieceSink reads them off the connection (PieceSink.Wire), so it must
// read exactly 8·count bytes before returning. If the connection dies
// first, what the sink has written is garbage-in-progress, not a piece:
// the chunk stays undone, the fetch attempt fails, and the failover
// sweep asks the next replica, which rewrites the whole piece.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// chunkFrameHeaderSize is the per-frame prefix: u32 index + u32 count.
const chunkFrameHeaderSize = 8

// sharedTransport is the single pooled transport every Cluster dials
// peers through unless Config.Client overrides it. Peer RPCs are small,
// frequent, and aimed at a handful of hosts, so connection reuse with
// capped per-host pools beats http.DefaultTransport's unbounded dials —
// especially under the scrubber, whose background fetches would
// otherwise compete with reads for fresh connections.
var sharedTransport = &http.Transport{
	MaxIdleConns:        128,
	MaxIdleConnsPerHost: 16,
	MaxConnsPerHost:     64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedClient wraps sharedTransport; timeouts come from per-attempt
// contexts, never from the client itself.
var sharedClient = &http.Client{Transport: sharedTransport}

func (c *Cluster) chunkURL(peer, id string) string {
	return c.peers[peer] + "/v1/internal/chunks/" + id
}

// outcomeOf classifies one peer RPC attempt for the per-peer outcome
// counter. ctx is the caller's context and actx the attempt's (ctx under
// the per-attempt timeout): an attempt the caller gave up on is
// "canceled", neither the peer's error nor its timeout.
func outcomeOf(ctx, actx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case ctx.Err() != nil:
		return "canceled"
	case actx.Err() == context.DeadlineExceeded:
		return "timeout"
	}
	return "error"
}

// shipShard PUTs a shard to a peer, once. Shards can be large, so the
// attempt gets a generous multiple of the fetch timeout. A failure fails
// the ingest: re-ingest is idempotent, and the scrubber makes a peer that
// missed its shard fetch it.
func (c *Cluster) shipShard(ctx context.Context, peer, id string, shard []byte) (err error) {
	actx, cancel := context.WithTimeout(ctx, max(5*c.timeout, 10*time.Second))
	defer cancel()
	defer func() { c.onPeerRequest(peer, outcomeOf(ctx, actx, err)) }()
	req, err := http.NewRequestWithContext(actx, http.MethodPut, c.chunkURL(peer, id), bytes.NewReader(shard))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return httpError(resp)
	}
	return nil
}

// deleteShard removes a shard from a peer; 404 counts as success.
func (c *Cluster) deleteShard(ctx context.Context, peer, id string) error {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodDelete, c.chunkURL(peer, id), nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(ctx, actx, err))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return httpError(resp)
	}
	return nil
}

// frameReaders recycles the 64 KiB buffers peer responses are read
// through; a hot region read would otherwise allocate one per peer.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// fetchChunks GETs the listed chunks' region intersections from a peer
// and hands each frame to the sink as it arrives. Returns an error if
// the stream dies, breaks protocol, or lacks a requested chunk (short
// stream — peer could not serve it).
func (c *Cluster) fetchChunks(ctx context.Context, peer, id string, hs []Hit, sink *chunkSink) error {
	var list strings.Builder
	// The region box sent to the peer is the bounding box of the
	// requested intersections; the peer re-intersects per chunk, so any
	// box covering them is equivalent.
	var bo, bhi [3]int
	for i, h := range hs {
		if i > 0 {
			list.WriteByte(',')
		}
		list.WriteString(strconv.Itoa(h.Index))
		for a := 0; a < 3; a++ {
			if i == 0 || h.Origin[a] < bo[a] {
				bo[a] = h.Origin[a]
			}
			if hi := h.Origin[a] + h.Dims[a]; i == 0 || hi > bhi[a] {
				bhi[a] = hi
			}
		}
	}
	u := fmt.Sprintf("%s?region=%d,%d,%d,%d,%d,%d&chunks=%s", c.chunkURL(peer, id),
		bo[0], bo[1], bo[2], bhi[0]-bo[0], bhi[1]-bo[1], bhi[2]-bo[2], list.String())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return readFrames(resp.Body, peer, hs, sink)
}

// readFrames parses a peer's chunk stream against the request hs that
// produced it. Every byte of body is untrusted: an index that was not
// requested or already answered, or a count other than the intersection's,
// ends the fetch before the sink sees the frame.
func readFrames(body io.Reader, peer string, hs []Hit, sink *chunkSink) error {
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(body)
	defer func() {
		br.Reset(nil)
		frameReaders.Put(br)
	}()
	want := make(map[int]Hit, len(hs))
	for _, h := range hs {
		want[h.Index] = h
	}
	var hdr [chunkFrameHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("cluster: peer %s stream: %w", peer, err)
		}
		ci := int(binary.LittleEndian.Uint32(hdr[0:4]))
		n := int(binary.LittleEndian.Uint32(hdr[4:8]))
		h, ok := want[ci]
		if !ok {
			return fmt.Errorf("cluster: peer %s sent chunk %d, which was not requested or already sent", peer, ci)
		}
		if n != h.samples() {
			return fmt.Errorf("cluster: peer %s chunk %d: %d samples, want %d", peer, ci, n, h.samples())
		}
		delete(want, ci)
		if err := sink.wire(h, br); err != nil {
			return fmt.Errorf("cluster: peer %s chunk %d: %w", peer, ci, err)
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("cluster: peer %s served %d of %d chunks", peer, len(hs)-len(want), len(hs))
	}
	return nil
}

// readSamples fills dst with little-endian float64 bits from r. The
// bit-for-bit round trip is what keeps a gathered region identical to a
// local decode.
func readSamples(r io.Reader, dst []float64) error {
	var buf [4096]byte
	for len(dst) > 0 {
		k := min(len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for i := range dst[:k] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[k:]
	}
	return nil
}

// fetchRepair POSTs a repair request to a peer and returns the shard
// container it answers with: a valid shard of volume id holding the
// intersection of the requested chunks with what the peer has intact.
// The caller merges that shard into its own store frame-by-frame, so a
// partial answer still heals every chunk it does carry.
func (c *Cluster) fetchRepair(ctx context.Context, peer, id string, chunks []int) ([]byte, error) {
	var list strings.Builder
	for i, ci := range chunks {
		if i > 0 {
			list.WriteByte(',')
		}
		list.WriteString(strconv.Itoa(ci))
	}
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	u := c.peers[peer] + "/v1/internal/repair/" + id + "?chunks=" + list.String()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(ctx, actx, err))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	return io.ReadAll(resp.Body)
}

// ManifestEntry is one volume in a peer's manifest listing.
type ManifestEntry struct {
	ID        string `json:"id"`
	NumChunks int    `json:"num_chunks"`
}

// fetchManifest lists the volumes a peer knows about. A rejoining or
// replacement node discovers what it should own by unioning its peers'
// manifests, then repairs itself chunk by chunk.
func (c *Cluster) fetchManifest(ctx context.Context, peer string) ([]ManifestEntry, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.peers[peer]+"/v1/internal/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(ctx, actx, err))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var out []ManifestEntry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("cluster: peer %s manifest: %w", peer, err)
	}
	return out, nil
}

// httpError summarizes a non-success peer response, keeping the first
// line of the body.
func httpError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(b))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Errorf("cluster: peer answered %d: %s", resp.StatusCode, msg)
}

// drainClose discards the remainder of a response body so the
// connection can be reused, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

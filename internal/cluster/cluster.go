package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/obs"
	"sperr/internal/store"
)

// Config describes one node's view of the cluster. Every node runs with
// the same roster; Self selects which entry is this process.
type Config struct {
	// Self is this node's peer id. Must be a key of Peers.
	Self string
	// Peers maps peer id to base URL (scheme://host:port), including
	// this node's own entry. The roster is static per process.
	Peers map[string]string
	// Timeout bounds one peer fetch attempt (0 = 2s). A read waits this
	// long for a slow peer before failing its chunks over.
	Timeout time.Duration
	// Replicas is how many distinct peers own each chunk (0 =
	// DefaultReplicas; clamped to the roster size). With Replicas > 1 a
	// single peer death costs no data: reads fail over to the next
	// replica in ring order and stay bit-identical and non-degraded.
	Replicas int
	// Client is the HTTP client for peer RPCs (nil = a client over the
	// shared pooled transport; timeouts come from contexts, not the
	// client).
	Client *http.Client
	// Registry receives the cluster's metrics (nil = a registry of the
	// cluster's own). Every counter but the per-peer request series is
	// created in New, so it reports 0 before its first event.
	Registry *obs.Registry
}

// DefaultReplicas is the replica count used when Config.Replicas is 0:
// two copies of every chunk, so any single disk or node loss is
// survivable without degradation.
const DefaultReplicas = 2

// Cluster coordinates a sharded volume namespace: it slices ingested
// containers across the peer roster by consistent hashing, and gathers
// region reads back chunk-by-chunk, degrading to a fill value when a
// peer cannot answer. All methods are safe for concurrent use.
type Cluster struct {
	self     string
	peers    map[string]string // id -> base URL, no trailing slash
	order    []string          // sorted peer ids
	ring     *Ring
	st       *store.Store
	client   *http.Client
	timeout  time.Duration
	replicas int

	// reg holds the lazily created per-peer request series,
	// sperrd_cluster_requests_total{peer,outcome}: each appears at its
	// first event. The other counters are created once, in New.
	reg                                    *obs.Registry
	filled, failover, breakerOpens         *obs.Counter
	scrubRuns, scrubDamaged, scrubRepaired *obs.Counter

	brMu     sync.Mutex
	breakers map[string]*breaker
}

// New validates the roster and builds the ring. The store holds this
// node's shards; it must outlive the cluster.
func New(cfg Config, st *store.Store) (*Cluster, error) {
	if st == nil {
		return nil, fmt.Errorf("cluster: requires a volume store")
	}
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: roster needs at least 2 peers (got %d)", len(cfg.Peers))
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self id %q not in peer roster", cfg.Self)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The coordinator's response decides a degraded read, so the server
	// bumps this one; it is created here with the rest.
	reg.Counter("sperrd_cluster_degraded_total")
	c := &Cluster{
		self:          cfg.Self,
		peers:         make(map[string]string, len(cfg.Peers)),
		st:            st,
		client:        cfg.Client,
		timeout:       cfg.Timeout,
		replicas:      cfg.Replicas,
		reg:           reg,
		filled:        reg.Counter("sperrd_cluster_filled_chunks_total"),
		failover:      reg.Counter("sperrd_replica_failover_chunks_total"),
		breakerOpens:  reg.Counter("sperrd_cluster_breaker_opens_total"),
		scrubRuns:     reg.Counter("sperrd_scrub_runs_total"),
		scrubDamaged:  reg.Counter("sperrd_scrub_damaged_chunks_total"),
		scrubRepaired: reg.Counter("sperrd_scrub_repaired_chunks_total"),
		breakers:      make(map[string]*breaker),
	}
	for id, u := range cfg.Peers {
		u = strings.TrimRight(u, "/")
		if id != cfg.Self && !strings.Contains(u, "://") {
			return nil, fmt.Errorf("cluster: peer %q URL %q has no scheme", id, u)
		}
		c.peers[id] = u
		c.order = append(c.order, id)
	}
	sort.Strings(c.order)
	ring, err := NewRing(c.order)
	if err != nil {
		return nil, err
	}
	c.ring = ring
	if c.client == nil {
		c.client = sharedClient
	}
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	if c.replicas == 0 {
		c.replicas = DefaultReplicas
	}
	if c.replicas < 0 {
		c.replicas = 1
	}
	if c.replicas > len(c.order) {
		c.replicas = len(c.order)
	}
	return c, nil
}

// Self returns this node's peer id.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the placement ring (scripts compute expected placement
// with it; it is immutable).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the peer primarily owning chunk ci of volume id.
func (c *Cluster) Owner(id string, ci int) string {
	return c.ring.ChunkOwners(nil, id, ci, 1)[0]
}

// Owners returns the ordered replica set for chunk ci of volume id: the
// primary owner first, then the failover order reads follow.
func (c *Cluster) Owners(id string, ci int) []string {
	return c.ring.ChunkOwners(nil, id, ci, c.replicas)
}

// Replicas returns the effective per-chunk replica count.
func (c *Cluster) Replicas() int { return c.replicas }

// onPeerRequest counts one peer RPC attempt by peer id and outcome: "ok",
// "error", "timeout", "canceled" (the caller's context ended first: not
// the peer's fault) or "open" (refused by the peer's circuit breaker
// without an attempt).
func (c *Cluster) onPeerRequest(peer, outcome string) {
	c.reg.Counter(`sperrd_cluster_requests_total{peer="` + peer + `",outcome="` + outcome + `"}`).Inc()
}

// Ingest shards a complete container across the roster: verify and
// address it once, slice one shard per peer along frame boundaries with
// each chunk's frames going to all of its replica owners, and ship each
// shard (the local one through the store, remote ones over the peer
// protocol, one attempt each). Every peer receives a shard even if it owns
// no chunks — the footer gives every node the volume's full geometry,
// so any node can coordinate reads. Ingest is all-or-nothing in its
// error report but idempotent in effect: shards are byte-stable for a
// given roster and the store merges re-ingested shards frame-by-frame,
// so retrying a partially failed ingest converges.
func (c *Cluster) Ingest(ctx context.Context, container []byte) (*store.Meta, bool, error) {
	id, info, err := store.AddressOf(container)
	if err != nil {
		return nil, false, err
	}
	placement := c.ring.PlacementReplicas(id, info.NumChunks, c.replicas)

	var (
		meta    *store.Meta
		created bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
	)
	for _, peer := range c.order {
		owned := make(map[int]bool, len(placement[peer]))
		for _, ci := range placement[peer] {
			owned[ci] = true
		}
		shard, err := sperr.SliceShard(container, func(ci int) bool { return owned[ci] })
		if err != nil {
			return nil, false, err
		}
		if peer == c.self {
			meta, created, err = c.st.PutShard(id, shard)
			if err != nil {
				return nil, false, err
			}
			continue
		}
		wg.Add(1)
		go func(peer string, shard []byte) {
			defer wg.Done()
			if err := c.shipShard(ctx, peer, id, shard); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
				mu.Unlock()
			}
		}(peer, shard)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, false, fmt.Errorf("cluster: ingest of %s incomplete: %w", id[:12], errors.Join(errs...))
	}
	return meta, created, nil
}

// Delete removes the volume's shard from every peer, local store
// included. A peer that has never seen the volume answers 404, which
// counts as success (delete is idempotent). Remote failures are
// aggregated but do not stop the local delete.
func (c *Cluster) Delete(ctx context.Context, id string) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, peer := range c.order {
		if peer == c.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if err := c.deleteShard(ctx, peer, id); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
				mu.Unlock()
			}
		}(peer)
	}
	err := c.st.Delete(id)
	wg.Wait()
	if err != nil {
		return err
	}
	if len(errs) > 0 {
		return fmt.Errorf("cluster: delete of %s incomplete: %w", shortID(id), errors.Join(errs...))
	}
	return nil
}

// Hit is one chunk's intersection with the requested region, in volume
// coordinates. Filled marks a chunk no replica could serve: the piece a
// sink receives for it carries the fill value.
type Hit struct {
	Index  int
	Origin [3]int
	Dims   [3]int
	Filled bool
}

func (h Hit) samples() int { return h.Dims[0] * h.Dims[1] * h.Dims[2] }

// PieceSink receives a region read's pieces where they are, so a consumer
// can move each sample once — from a cached slab or a peer's socket
// straight into its output. Methods are called concurrently for different
// chunks. Every intersecting chunk completes exactly once, but a chunk's
// Wire can run more than once: an attempt that dies part-way is abandoned
// and the chunk is asked of its next replica, whose delivery must
// overwrite whatever the dead one wrote.
type PieceSink interface {
	// Slab delivers a piece whose samples are in memory: data is the
	// x-fastest slab of the box slabOrigin+slabDims, which contains hit's
	// box (it is hit's box exactly for a filled piece). data may be the
	// decoded cache's own memory, shared with other readers: never write
	// to it.
	Slab(hit Hit, slabOrigin, slabDims [3]int, data []float64) error
	// Wire delivers a piece off a peer connection: r yields exactly 8·n
	// bytes, the n little-endian float64 samples of hit's box, x-fastest.
	// Wire must read all of them before it returns nil, and must return
	// the error if r fails. A failure of r is the transport's, not the
	// sink's: the chunk stays undelivered and is asked of its next
	// replica. Any other error fails the whole read. No Slab or Wire call
	// is made after RegionTo returns.
	Wire(hit Hit, r io.Reader) error
}

// ChunkPiece is one chunk's contribution to a region read: the
// intersection of the chunk's box with the requested region, in volume
// coordinates, samples x-fastest. Filled marks a chunk whose owner
// could not answer — Samples then carry the fill value.
type ChunkPiece struct {
	Index   int
	Origin  [3]int
	Dims    [3]int
	Samples []float64
	Filled  bool
}

// emitSink adapts a ChunkPiece callback to PieceSink by materialising each
// piece's Samples, which the callback then owns.
type emitSink func(ChunkPiece) error

func (emit emitSink) Slab(h Hit, so, sd [3]int, data []float64) error {
	samples := make([]float64, 0, h.samples())
	for z := h.Origin[2] - so[2]; z < h.Origin[2]-so[2]+h.Dims[2]; z++ {
		for y := h.Origin[1] - so[1]; y < h.Origin[1]-so[1]+h.Dims[1]; y++ {
			off := (z*sd[1]+y)*sd[0] + h.Origin[0] - so[0]
			samples = append(samples, data[off:off+h.Dims[0]]...)
		}
	}
	return emit(ChunkPiece{Index: h.Index, Origin: h.Origin, Dims: h.Dims, Samples: samples, Filled: h.Filled})
}

func (emit emitSink) Wire(h Hit, r io.Reader) error {
	samples := make([]float64, h.samples())
	if err := readSamples(r, samples); err != nil {
		return err
	}
	return emit(ChunkPiece{Index: h.Index, Origin: h.Origin, Dims: h.Dims, Samples: samples})
}

// RegionReport summarizes a scatter-gather read.
type RegionReport struct {
	// Chunks is the number of chunks intersecting the region; Remote how
	// many were primarily owned by other peers.
	Chunks int
	Remote int
	// Skipped lists the chunk indices that degraded to fill, sorted.
	Skipped []int
	// FailedOver is how many chunks were served by a replica other than
	// their primary owner. A non-zero count with an empty Skipped list is
	// the replicated cluster absorbing a fault: the read stayed
	// bit-identical and non-degraded.
	FailedOver int
	// Unreachable lists the peers that failed every fetch directed at
	// them during this read, sorted. Empty for a clean read; named in the
	// degraded trailer so operators can see which node to look at.
	Unreachable []string
}

// RegionOptions tunes a scatter-gather read.
type RegionOptions struct {
	// Workers bounds concurrent local chunk decodes (<=0: 1).
	Workers int
	// Fill is the value written for chunks whose owner could not answer
	// (the salvage fill policy; NaN marks loss unambiguously).
	Fill float64
}

// Region is RegionTo for callers that want each piece as a []float64 of
// their own: emit may be called concurrently, and each intersecting chunk
// is emitted exactly once.
func (c *Cluster) Region(ctx context.Context, id string, origin, dims [3]int, opts RegionOptions, emit func(ChunkPiece) error) (*RegionReport, error) {
	return c.RegionTo(ctx, id, origin, dims, opts, emitSink(emit))
}

// RegionTo performs a scatter-gather read: intersect the request box with
// the volume's chunk geometry (known locally — every shard carries the
// full footer), fan out to owning peers, and hand each chunk's
// intersection to out as it arrives. One ladder handles a failed or slow
// peer: the per-attempt timeout bounds each fetch, the peer's circuit
// breaker refuses a peer that keeps failing, the affected chunks fail
// over to the next replica in ring order, and only a chunk that no
// replica delivered degrades to the fill value — with Replicas > 1 a
// single dead peer therefore costs nothing but latency, and the gathered
// bytes stay identical to a single-node decode. The read itself only
// fails for a local reason (unknown volume, bad box, canceled context,
// or a sink error).
func (c *Cluster) RegionTo(ctx context.Context, id string, origin, dims [3]int, opts RegionOptions, out PieceSink) (*RegionReport, error) {
	meta, ok := c.st.Describe(id)
	if !ok {
		return nil, store.ErrNotFound
	}
	if err := grid.CheckBox(origin, dims, meta.Dims); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	var hits []Hit
	for i, cg := range meta.Chunks {
		if o, d, ok := grid.Intersect(origin, dims, cg.Origin, cg.Dims); ok {
			hits = append(hits, Hit{Index: i, Origin: o, Dims: d})
		}
	}
	rep := &RegionReport{Chunks: len(hits)}
	if len(hits) == 0 {
		return rep, nil
	}

	owners := make([][]string, len(hits))
	flat := make([]string, 0, len(hits)*c.replicas) // every replica set, back to back
	for i, h := range hits {
		at := len(flat)
		flat = c.ring.ChunkOwners(flat, id, h.Index, c.replicas)
		owners[i] = flat[at:len(flat):len(flat)]
		if owners[i][0] != c.self {
			rep.Remote++
		}
	}

	sink := newChunkSink(out)
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}

	// Peers whose every fetch failed, minus those that later answered.
	var (
		peerMu    sync.Mutex
		failedPrs = make(map[string]bool)
		okPrs     = make(map[string]bool)
	)
	markPeer := func(peer string, ok bool) {
		peerMu.Lock()
		if ok {
			okPrs[peer] = true
		} else {
			failedPrs[peer] = true
		}
		peerMu.Unlock()
	}

	// The failover sweep: rank 0 asks each undelivered chunk's primary
	// owner, rank r its r-th replica, once, grouping chunks by peer so one
	// RPC carries a peer's whole batch. Within a rank each chunk is asked
	// of exactly one source and the ranks run one after another, so no two
	// sources ever write the same chunk.
	for rank := 0; rank < c.replicas; rank++ {
		groups := make(map[string][]Hit)
		for i, h := range hits {
			if !sink.has(h.Index) {
				groups[owners[i][rank]] = append(groups[owners[i][rank]], h)
			}
		}
		if len(groups) == 0 {
			break
		}
		var wg sync.WaitGroup
		for peer, hs := range groups {
			wg.Add(1)
			go func(peer string, hs []Hit) {
				defer wg.Done()
				if peer == c.self {
					c.decodeLocal(ctx, meta, hs, workers, sink)
				} else {
					markPeer(peer, c.fetchGuarded(ctx, peer, id, hs, sink))
				}
			}(peer, hs)
		}
		wg.Wait()
		if rank > 0 {
			// Anything a non-primary rank delivered is a failover save.
			for _, hs := range groups {
				for _, h := range hs {
					if sink.has(h.Index) {
						rep.FailedOver++
					}
				}
			}
		}
		if ctx.Err() != nil {
			break
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sink.emitErr(); err != nil {
		return nil, err
	}

	for peer := range failedPrs {
		if !okPrs[peer] {
			rep.Unreachable = append(rep.Unreachable, peer)
		}
	}
	sort.Strings(rep.Unreachable)
	c.failover.Add(int64(rep.FailedOver))

	// Whatever is still missing degrades to the fill value — the cluster
	// analogue of the salvage fill policy.
	for _, h := range hits {
		if sink.has(h.Index) {
			continue
		}
		rep.Skipped = append(rep.Skipped, h.Index)
		buf := make([]float64, h.samples())
		if opts.Fill != 0 || math.IsNaN(opts.Fill) {
			for i := range buf {
				buf[i] = opts.Fill
			}
		}
		h.Filled = true
		sink.slab(h, h.Origin, h.Dims, buf)
	}
	sort.Ints(rep.Skipped)
	c.filled.Add(int64(len(rep.Skipped)))
	if err := sink.emitErr(); err != nil {
		return nil, err
	}
	return rep, nil
}

// decodeLocal serves chunk hits from this node's own shard through the
// store's read step — resident slabs with no decode, misses decoded up to
// workers at a time from one read of the blob — handing the sink each
// chunk's slab as it is. A chunk whose local frame is damaged or stubbed
// simply stays undelivered: the failover sweep asks its next replica.
func (c *Cluster) decodeLocal(ctx context.Context, meta *store.Meta, hs []Hit, workers int, sink *chunkSink) {
	chunks := make([]int, len(hs))
	for i, h := range hs {
		chunks[i] = h.Index
	}
	l, err := c.st.Lookup(meta.ID, chunks)
	if err != nil {
		return
	}
	// Every chunk error is skipped, so Read can only fail on ctx, which
	// the sweep checks after each rank.
	_ = l.Read(ctx, workers, func(ci int, slab []float64, err error) error {
		if err == nil {
			h := hs[slices.IndexFunc(hs, func(h Hit) bool { return h.Index == ci })]
			cg := meta.Chunks[ci]
			sink.slab(h, cg.Origin, cg.Dims, slab)
		}
		return nil
	})
}

// fetchGuarded runs one fetch attempt against a peer, under the
// per-attempt timeout and behind the peer's circuit breaker: an open
// breaker refuses immediately (outcome "open") so the sweep moves to the
// chunk's next replica instead of burning a timeout on a peer that is
// almost certainly still down. The attempt succeeded if every requested
// chunk is done, whatever the request returned: a peer that sent every
// frame and then reset its connection has served the read. An attempt
// the caller's context ended is the caller's, not the peer's: it counts
// neither way, and a half-open probe is given back.
func (c *Cluster) fetchGuarded(ctx context.Context, peer, id string, hs []Hit, sink *chunkSink) bool {
	br := c.breakerFor(peer)
	if !br.allow(time.Now()) {
		c.onPeerRequest(peer, "open")
		return false
	}
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	err := c.fetchChunks(actx, peer, id, hs, sink)
	c.onPeerRequest(peer, outcomeOf(ctx, actx, err))
	if sink.allDone(hs) {
		br.success()
		return true
	}
	if ctx.Err() != nil {
		br.release()
	} else if br.failure(time.Now()) {
		c.breakerOpens.Inc()
	}
	return false
}

// chunkSink is the gate between the sweep and the caller's PieceSink: it
// records which chunks are done, and the first sink error. No two
// sources ever write one chunk (see RegionTo), so done or not done is all
// there is to know.
type chunkSink struct {
	mu   sync.Mutex
	done map[int]bool
	out  PieceSink
	err  error
}

func newChunkSink(out PieceSink) *chunkSink {
	return &chunkSink{done: make(map[int]bool), out: out}
}

// finish marks a chunk done. A sink error also ends the chunk — the read
// as a whole fails with it, so nothing should fetch it again.
func (s *chunkSink) finish(ci int, err error) {
	s.mu.Lock()
	s.done[ci] = true
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// slab delivers an in-memory piece. The sink runs outside the lock (it
// serializes internally).
func (s *chunkSink) slab(h Hit, slabOrigin, slabDims [3]int, data []float64) {
	s.finish(h.Index, s.out.Slab(h, slabOrigin, slabDims, data))
}

// wire delivers the piece whose 8·n sample bytes are next on r. The
// returned error means r is out of step or dead: a short read leaves the
// chunk undone (the next replica rewrites every row of it), a sink error
// ends it.
func (s *chunkSink) wire(h Hit, r io.Reader) error {
	fr := frameReader{r: r, left: 8 * int64(h.samples())}
	err := s.out.Wire(h, &fr)
	if fr.err != nil {
		return fr.err
	}
	if err == nil && fr.left > 0 {
		err = fmt.Errorf("cluster: sink left %d bytes of chunk %d unread", fr.left, h.Index)
	}
	s.finish(h.Index, err)
	return err
}

// frameReader hands a PieceSink exactly one frame's sample bytes and
// remembers whether the transport, rather than the sink, failed.
type frameReader struct {
	r    io.Reader
	left int64
	err  error // first error of r with bytes still owed
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	if err != nil && f.left > 0 {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		f.err = err
		return n, err
	}
	return n, nil
}

// has reports whether chunk ci is done.
func (s *chunkSink) has(ci int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[ci]
}

func (s *chunkSink) allDone(hs []Hit) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range hs {
		if !s.done[h.Index] {
			return false
		}
	}
	return true
}

func (s *chunkSink) emitErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// shortID abbreviates a content address for error messages.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

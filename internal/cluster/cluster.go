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
	"sperr/internal/store"
)

// Hooks observes cluster events for wiring into a metrics registry.
// Every field may be nil; callbacks run on request goroutines.
type Hooks struct {
	// OnPeerRequest fires once per peer RPC attempt with the peer id and
	// an outcome of "ok", "error", "timeout" or "open" (refused by the
	// peer's circuit breaker without an attempt).
	OnPeerRequest func(peer, outcome string)
	// OnRetry fires when a failed peer fetch is retried.
	OnRetry func(peer string)
	// OnHedge fires when a slow peer fetch gets a hedged duplicate.
	OnHedge func(peer string)
	// OnFilled fires after a degraded region read with the number of
	// chunks that had to be filled.
	OnFilled func(chunks int)
	// OnFailover fires when chunks are served by a replica other than
	// their primary owner (the read survived a peer, but not unscathed).
	OnFailover func(chunks int)
	// OnBreakerOpen fires when a peer's circuit breaker opens after
	// consecutive failures.
	OnBreakerOpen func(peer string)
	// OnScrubRun fires once per anti-entropy scrub pass.
	OnScrubRun func()
	// OnScrubDamaged fires per scrub pass with the number of owned chunks
	// found missing or damaged locally.
	OnScrubDamaged func(chunks int)
	// OnScrubRepaired fires per scrub pass with the number of chunks
	// re-fetched intact from replicas.
	OnScrubRepaired func(chunks int)
}

// Config describes one node's view of the cluster. Every node runs with
// the same roster; Self selects which entry is this process.
type Config struct {
	// Self is this node's peer id. Must be a key of Peers.
	Self string
	// Peers maps peer id to base URL (scheme://host:port), including
	// this node's own entry. The roster is static per process.
	Peers map[string]string
	// VirtualNodes per peer on the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Timeout bounds one peer fetch attempt (0 = 2s).
	Timeout time.Duration
	// HedgeAfter launches a duplicate fetch if the primary has not
	// completed in this long (0 = 250ms; negative disables hedging).
	HedgeAfter time.Duration
	// Retries is how many additional attempts a failed peer fetch gets
	// (0 = 1; negative disables retries).
	Retries int
	// Replicas is how many distinct peers own each chunk (0 =
	// DefaultReplicas; clamped to the roster size). With Replicas > 1 a
	// single peer death costs no data: reads fail over to the next
	// replica in ring order and stay bit-identical and non-degraded.
	Replicas int
	// Client is the HTTP client for peer RPCs (nil = a client over the
	// shared pooled transport; timeouts come from contexts, not the
	// client).
	Client *http.Client
	// Hooks observes peer traffic (metrics).
	Hooks Hooks
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
	self       string
	peers      map[string]string // id -> base URL, no trailing slash
	order      []string          // sorted peer ids
	ring       *Ring
	st         *store.Store
	client     *http.Client
	timeout    time.Duration
	hedgeAfter time.Duration
	retries    int
	replicas   int
	hooks      Hooks

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
	c := &Cluster{
		self:       cfg.Self,
		peers:      make(map[string]string, len(cfg.Peers)),
		st:         st,
		client:     cfg.Client,
		timeout:    cfg.Timeout,
		hedgeAfter: cfg.HedgeAfter,
		retries:    cfg.Retries,
		replicas:   cfg.Replicas,
		hooks:      cfg.Hooks,
		breakers:   make(map[string]*breaker),
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
	ring, err := NewRing(c.order, cfg.VirtualNodes)
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
	if c.hedgeAfter == 0 {
		c.hedgeAfter = 250 * time.Millisecond
	}
	if c.retries == 0 {
		c.retries = 1
	}
	if c.retries < 0 {
		c.retries = 0
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

func (c *Cluster) onPeerRequest(peer, outcome string) {
	if c.hooks.OnPeerRequest != nil {
		c.hooks.OnPeerRequest(peer, outcome)
	}
}

// Ingest shards a complete container across the roster: verify and
// address it once, slice one shard per peer along frame boundaries with
// each chunk's frames going to all of its replica owners, and ship each
// shard (the local one through the store, remote ones over the peer
// protocol, with retries). Every peer receives a shard even if it owns
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
	if info.Version < 2 {
		// Unshardable input is the client's to fix (422), like any other
		// container the store cannot vouch for.
		return nil, false, fmt.Errorf("%w: cannot shard a v%d container (no index footer); repack with a current encoder", store.ErrCorrupt, info.Version)
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
	// sink's: the chunk is un-claimed and fetched again elsewhere. Any
	// other error fails the whole read.
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
// intersection to out as it arrives. Peer failure fails the
// affected chunks over to the next replica in ring order; only after
// every replica has been exhausted (across retries and hedging) does a
// chunk degrade to the fill value — with Replicas > 1 a single dead
// peer therefore costs nothing but latency, and the gathered bytes stay
// identical to a single-node decode. The read itself only fails for a
// local reason (unknown volume, bad box, canceled context, or a sink
// error).
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

	// The failover sweep: rank 0 asks each missing chunk's primary owner,
	// rank r its r-th replica, grouping chunks by peer so one RPC carries
	// a peer's whole batch. Each full sweep is one attempt; failed chunks
	// get retried sweeps with capped backoff before degrading to fill.
	backoff := 50 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
sweep:
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			// A replica sweep that delivered everything owes no backoff.
			if !slices.ContainsFunc(hits, func(h Hit) bool { return !sink.has(h.Index) }) {
				break
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				break sweep
			}
			if backoff *= 2; backoff > backoffCap {
				backoff = backoffCap
			}
		}
		for rank := 0; rank < c.replicas; rank++ {
			groups := make(map[string][]Hit)
			for i, h := range hits {
				if sink.has(h.Index) {
					continue
				}
				if rank < len(owners[i]) {
					groups[owners[i][rank]] = append(groups[owners[i][rank]], h)
				}
			}
			if len(groups) == 0 {
				break sweep
			}
			var wg sync.WaitGroup
			for peer, hs := range groups {
				wg.Add(1)
				if peer == c.self {
					go func(hs []Hit) {
						defer wg.Done()
						c.decodeLocal(ctx, meta, hs, workers, sink)
					}(hs)
					continue
				}
				go func(peer string, hs []Hit) {
					defer wg.Done()
					if attempt > 0 && c.hooks.OnRetry != nil {
						c.hooks.OnRetry(peer)
					}
					markPeer(peer, c.fetchGuarded(ctx, peer, id, hs, sink))
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
				break sweep
			}
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
	if rep.FailedOver > 0 && c.hooks.OnFailover != nil {
		c.hooks.OnFailover(rep.FailedOver)
	}

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
	if len(rep.Skipped) > 0 && c.hooks.OnFilled != nil {
		c.hooks.OnFilled(len(rep.Skipped))
	}
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

// fetchGuarded runs one hedged fetch attempt against a peer behind its
// circuit breaker: an open breaker refuses immediately (outcome "open")
// so the sweep short-circuits to the chunk's next replica instead of
// burning a timeout on a peer that is almost certainly still down.
func (c *Cluster) fetchGuarded(ctx context.Context, peer, id string, hs []Hit, sink *chunkSink) bool {
	br := c.breakerFor(peer)
	if !br.allow(time.Now()) {
		c.onPeerRequest(peer, "open")
		return false
	}
	if c.fetchHedged(ctx, peer, id, hs, sink) {
		br.success()
		return true
	}
	if br.failure(time.Now()) && c.hooks.OnBreakerOpen != nil {
		c.hooks.OnBreakerOpen(peer)
	}
	return false
}

// fetchHedged runs one (possibly duplicated) fetch attempt against a
// peer. If the primary has not completed within hedgeAfter, an
// identical request is launched alongside it; the sink lets only one of
// them claim a chunk and the other drains its copy of the frame.
// Reports whether every requested chunk was delivered.
func (c *Cluster) fetchHedged(ctx context.Context, peer, id string, hs []Hit, sink *chunkSink) bool {
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	results := make(chan error, 2)
	inflight := 0
	// A request still running at return holds none of these chunks (they
	// are all done, or the attempt is over), but it may be inside the sink
	// finishing another write into the caller's response; cancel it and
	// wait it out, so nothing is written after the caller has moved on.
	defer func() {
		cancel()
		for ; inflight > 0; inflight-- {
			<-results
		}
	}()
	launch := func() {
		inflight++
		go func() { results <- c.fetchChunks(cctx, peer, id, hs, sink) }()
	}
	launch()
	var hedgeC <-chan time.Time
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for {
		select {
		case <-results:
			inflight--
			// A request that finished cleanly may have drained frames whose
			// chunks the other one had claimed and is still reading. Those
			// are not delivered yet, and cancelling their reader now would
			// un-claim them: wait for it instead.
			if sink.allDone(hs) {
				return true
			}
			if inflight == 0 {
				return false
			}
		case <-hedgeC:
			hedgeC = nil
			if c.hooks.OnHedge != nil {
				c.hooks.OnHedge(peer)
			}
			launch()
		case <-cctx.Done():
			return false
		}
	}
}

// chunkSink is the gate between the sweep and the caller's PieceSink: it
// lets exactly one source at a time write a chunk (claimed), and exactly
// one finish it (done), whichever hedged, retried or failed-over fetch
// gets there first.
type chunkSink struct {
	mu    sync.Mutex
	state map[int]pieceState // absent: unclaimed
	out   PieceSink
	err   error
}

type pieceState uint8

const (
	pieceClaimed pieceState = iota + 1 // one source is writing it
	pieceDone
)

func newChunkSink(out PieceSink) *chunkSink {
	return &chunkSink{state: make(map[int]pieceState), out: out}
}

// claim reserves chunk ci for the caller unless it is claimed or done.
func (s *chunkSink) claim(ci int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state[ci] != 0 {
		return false
	}
	s.state[ci] = pieceClaimed
	return true
}

// unclaim gives chunk ci back after a transport failure, so that the
// sweep asks its next replica.
func (s *chunkSink) unclaim(ci int) {
	s.mu.Lock()
	delete(s.state, ci)
	s.mu.Unlock()
}

// finish marks a claimed chunk done. A sink error also ends the chunk —
// the read as a whole fails with it, so nothing should fetch it again.
func (s *chunkSink) finish(ci int, err error) {
	s.mu.Lock()
	s.state[ci] = pieceDone
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// slab delivers an in-memory piece unless its chunk is already taken. The
// sink runs outside the lock (it serializes internally).
func (s *chunkSink) slab(h Hit, slabOrigin, slabDims [3]int, data []float64) {
	if s.claim(h.Index) {
		s.finish(h.Index, s.out.Slab(h, slabOrigin, slabDims, data))
	}
}

// wire delivers the piece whose 8·n sample bytes are next on r, or drains
// them if the chunk is already taken, so r is left at the next frame
// either way. The returned error means r is out of step or dead: a short
// read un-claims the chunk (the next replica rewrites every row of it), a
// sink error keeps it.
func (s *chunkSink) wire(h Hit, r io.Reader) error {
	n := 8 * int64(h.samples())
	if !s.claim(h.Index) {
		_, err := io.CopyN(io.Discard, r, n)
		return err
	}
	fr := frameReader{r: r, left: n}
	err := s.out.Wire(h, &fr)
	if fr.err != nil {
		s.unclaim(h.Index)
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

// has reports whether chunk ci is spoken for. Between sweeps no fetch is
// running, so that means delivered.
func (s *chunkSink) has(ci int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[ci] != 0
}

func (s *chunkSink) allDone(hs []Hit) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range hs {
		if s.state[h.Index] != pieceDone {
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

package server

// Cluster-mode handlers: the public /v1/volumes endpoints dispatch here
// when a peer roster is configured, and the /v1/internal/chunks peer
// protocol lives here. The coordinator side slices ingests across the
// ring and scatter-gathers region reads; the peer side is a thin
// verified-shard store plus a chunk streamer. Both reuse the same
// store, admission, assembler, and trailer machinery as single-node
// serving — a 3-node read is bit-identical to a 1-node read.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/grid"
	"sperr/internal/store"
)

// parseFill reads the salvage fill policy parameter: NaN by default
// (marks loss unambiguously), "zero", or any float.
func parseFill(r *http.Request) (float64, error) {
	switch fv := strings.ToLower(param(r, "fill")); fv {
	case "", "nan":
		return math.NaN(), nil
	case "zero":
		return 0, nil
	default:
		f, err := strconv.ParseFloat(fv, 64)
		if err != nil {
			return 0, fmt.Errorf("bad fill %q", fv)
		}
		return f, nil
	}
}

// handleClusterPut shards an ingested container across the peer roster.
// The coordinator verifies and content-addresses the whole container
// once, then ships each peer the shard holding exactly its chunks. Peer
// failure fails the ingest (502) — re-ingest is idempotent and
// converges, so the client simply retries.
func (s *Server) handleClusterPut(w *statusWriter, r *http.Request, st *reqStats) {
	body, ok := s.readContainer(w, r, st)
	if !ok {
		return
	}
	meta, created, err := s.cluster.Ingest(r.Context(), body)
	if err != nil {
		st.err = err
		switch {
		case errors.Is(err, store.ErrCorrupt):
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		case r.Context().Err() != nil:
			st.canceled = true
			http.Error(w, err.Error(), 499)
		default:
			// A peer refused or vanished mid-ingest.
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return
	}
	s.setStoreGauges()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sperr-Volume-Id", meta.ID)
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		st.err = err
	}
}

// handleClusterRegion scatter-gathers a region read (fill= sets the
// value of chunks no replica could serve): the chunk geometry is known
// locally from the shard footer, the intersecting chunks are fetched from
// their owning peers, and the arriving pieces stream through streamRegion.
// A chunk that none of its replicas delivered degrades to the fill value
// — the response is then complete but carries the
// "degraded: skipped i,j,..." trailer, never a 500.
func (s *Server) handleClusterRegion(w *statusWriter, r *http.Request, st *reqStats, rq volumeRegion) {
	fill, err := parseFill(r)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	// Cluster-level admission: the coordinator charges its worst case
	// before fanning out — concurrent local decodes plus remote pieces in
	// flight, bounded by the region itself. Peers charge their own decode
	// cost on their side of the wire.
	cost := int64(min(rq.workers, len(rq.chunks))) * maxChunkSamples(rq.meta)
	release := s.admit(w, r, st, min(cost, int64(rq.dims[0])*int64(rq.dims[1])*int64(rq.dims[2])))
	if release == nil {
		return
	}
	defer release()

	s.streamRegion(w, r, st, rq, func(ra *regionAssembler) (string, error) {
		rep, err := s.cluster.RegionTo(r.Context(), rq.meta.ID, rq.origin, rq.dims,
			cluster.RegionOptions{Workers: rq.workers, Fill: fill}, pieceSink{ra})
		if err != nil || len(rep.Skipped) == 0 {
			return "", err
		}
		s.reg.Counter("sperrd_cluster_degraded_total").Inc()
		status := "degraded: skipped " + intList(rep.Skipped)
		if len(rep.Unreachable) > 0 {
			// Name the peers that failed every fetch, so the trailer answers
			// "which node do I go look at" and not just "what did I lose".
			status += "; unreachable " + strings.Join(rep.Unreachable, ",")
		}
		return status, nil
	})
}

// streamWriters recycles the 256 KiB buffers region and peer-chunk
// responses are written through; a hot read would otherwise allocate and
// zero one per request on both sides of the wire.
var streamWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 256<<10) }}

func getStreamWriter(w io.Writer) *bufio.Writer {
	bw := streamWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putStreamWriter returns bw to the pool. Nothing may write to it after.
func putStreamWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	streamWriters.Put(bw)
}

// pieceSink lands a scatter-gather read's pieces in the response bands:
// the sample bytes go from the cached slab or the peer's socket into the
// band once, with no slice of samples in between.
type pieceSink struct{ ra *regionAssembler }

func (p pieceSink) Slab(h cluster.Hit, slabOrigin, slabDims [3]int, data []float64) error {
	return p.ra.addSlab(h.Origin, h.Dims, slabOrigin, slabDims, data)
}

func (p pieceSink) Wire(h cluster.Hit, r io.Reader) error {
	return p.ra.addWire(h.Origin, h.Dims, r)
}

// handleClusterDelete removes the volume's shard from every peer.
func (s *Server) handleClusterDelete(w *statusWriter, r *http.Request, st *reqStats) {
	err := s.cluster.Delete(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, store.ErrNotFound):
		notFound(w, st, err)
		return
	case err != nil:
		st.err = err
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	s.setStoreGauges()
	w.WriteHeader(http.StatusNoContent)
}

// maxChunkSamples is the largest chunk's sample count — the unit of the
// cluster admission charge.
func maxChunkSamples(meta *store.Meta) int64 {
	var m int64
	for _, cg := range meta.Chunks {
		if n := int64(cg.Dims[0]) * int64(cg.Dims[1]) * int64(cg.Dims[2]); n > m {
			m = n
		}
	}
	return m
}

// handleInternalPut is the peer side of cluster ingest: store a shard
// under the coordinator-assigned content address, verifying every owned
// frame (stubs are admitted as stubs, damage is not).
func (s *Server) handleInternalPut(w *statusWriter, r *http.Request, st *reqStats) {
	body, ok := s.readContainer(w, r, st)
	if !ok {
		return
	}
	meta, created, err := s.store.PutShard(r.PathValue("id"), body)
	if err != nil {
		st.err = err
		code := http.StatusBadRequest
		if errors.Is(err, store.ErrCorrupt) {
			code = http.StatusUnprocessableEntity
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.setStoreGauges()
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		st.err = err
	}
}

// handleInternalChunks streams the requested chunks' intersections with
// the region box as length-prefixed float64 frames (u32 index, u32
// count, samples LE). A chunk this peer cannot serve — a stub, or a
// damaged frame — is simply omitted; the coordinator asks the chunk's
// next replica, then fills. The chunks come through the store's read step —
// resident slabs in place, misses decoded one at a time from one read of
// the blob — and each intersection goes onto the wire row by row, so a
// hot chunk costs neither decode work nor a copy of its samples here.
func (s *Server) handleInternalChunks(w *statusWriter, r *http.Request, st *reqStats) {
	id := r.PathValue("id")
	meta, ok := s.store.Describe(id)
	if !ok {
		notFound(w, st, store.ErrNotFound)
		return
	}
	origin, rdims, err := parseRegionSpec(param(r, "region"))
	if err != nil {
		badRequest(w, st, err)
		return
	}
	var chunks, touched []int
	for _, f := range strings.Split(param(r, "chunks"), ",") {
		ci, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || ci < 0 || ci >= len(meta.Chunks) {
			badRequest(w, st, fmt.Errorf("bad chunk index %q", f))
			return
		}
		// A frame answers an index once; asking twice is asking for a
		// stream the coordinator's own parser rejects.
		if slices.Contains(chunks, ci) {
			badRequest(w, st, fmt.Errorf("chunk index %d listed twice", ci))
			return
		}
		chunks = append(chunks, ci)
		cg := meta.Chunks[ci]
		if _, _, ok := grid.Intersect(origin, rdims, cg.Origin, cg.Dims); ok {
			touched = append(touched, ci)
		}
	}
	if len(chunks) == 0 {
		badRequest(w, st, errors.New("chunks parameter required"))
		return
	}

	// Chunks decode one at a time here; the charge is one chunk arena.
	release := s.admit(w, r, st, maxChunkSamples(meta))
	if release == nil {
		return
	}
	defer release()

	l, err := s.store.Lookup(id, touched)
	if err != nil { // deleted since Describe
		notFound(w, st, err)
		return
	}
	finish := trailerStatus(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	out := getStreamWriter(w)
	defer putStreamWriter(out)
	row := make([]byte, 8*meta.ChunkDims[0]) // no chunk has longer rows
	err = l.Read(r.Context(), 1, func(ci int, slab []float64, err error) error {
		if err != nil {
			return nil // unservable chunk (stub or damage): omit its frame
		}
		cg := meta.Chunks[ci]
		o, d, _ := grid.Intersect(origin, rdims, cg.Origin, cg.Dims)
		return writeChunkFrame(out, ci, o, d, cg.Origin, cg.Dims, slab, row)
	})
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		s.streamFail(w, r, st, finish, err)
		return
	}
	finish(nil)
}

// writeChunkFrame writes one peer-protocol frame: chunk index ci, the
// sample count of the box o+d, then that box's samples read out of the
// slab so+sd and serialised one row at a time through row (at least 8·d[0]
// bytes). The slab is only read.
func writeChunkFrame(out *bufio.Writer, ci int, o, d, so, sd [3]int, slab []float64, row []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ci))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(d[0]*d[1]*d[2]))
	if _, err := out.Write(hdr[:]); err != nil {
		return err
	}
	row = row[:8*d[0]]
	for z := o[2] - so[2]; z < o[2]-so[2]+d[2]; z++ {
		for y := o[1] - so[1]; y < o[1]-so[1]+d[1]; y++ {
			src := (z*sd[1]+y)*sd[0] + o[0] - so[0]
			putRow(row, slab[src:src+d[0]], 8)
			if _, err := out.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// handleInternalRepair answers an anti-entropy repair request: slice
// this node's resident container down to the intersection of the
// requested chunks with what is locally intact, and return that shard.
// The response is itself a valid container, so the requester heals by
// merging it through its own verified PutShard path. An empty
// intersection still returns the stub skeleton — that is how a
// rejoining peer acquires a volume's geometry before owning a byte of
// it. Intactness is proven per frame here (sperr.OwnedChunks), so a
// damaged local frame is never propagated to the peer trying to heal.
func (s *Server) handleInternalRepair(w *statusWriter, r *http.Request, st *reqStats) {
	id := r.PathValue("id")
	meta, blob, err := s.store.Get(id)
	if err != nil {
		notFound(w, st, store.ErrNotFound)
		return
	}
	want := make(map[int]bool)
	if raw := param(r, "chunks"); raw != "" {
		for _, f := range strings.Split(raw, ",") {
			ci, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || ci < 0 || ci >= meta.NumChunks {
				badRequest(w, st, fmt.Errorf("bad chunk index %q", f))
				return
			}
			want[ci] = true
		}
	}
	intact, err := sperr.OwnedChunks(blob)
	if err != nil {
		// This node's own copy is too damaged to vouch for anything; the
		// requester falls through to the next replica.
		st.err = err
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	keep := make(map[int]bool, len(intact))
	for _, ci := range intact {
		if want[ci] {
			keep[ci] = true
		}
	}
	shard, err := sperr.SliceShard(blob, func(ci int) bool { return keep[ci] })
	if err != nil {
		st.err = err
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(shard); err != nil {
		st.err = err
	}
}

// handleInternalManifest lists this node's volumes (id and chunk count)
// so a rejoining or replacement peer can discover what the cluster
// holds and scrub itself back to full ownership.
func (s *Server) handleInternalManifest(w *statusWriter, r *http.Request, st *reqStats) {
	vols := s.store.List()
	out := make([]cluster.ManifestEntry, 0, len(vols))
	for _, m := range vols {
		out = append(out, cluster.ManifestEntry{ID: m.ID, NumChunks: m.NumChunks})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		st.err = err
	}
}

// handleInternalDelete is the peer side of cluster delete.
func (s *Server) handleInternalDelete(w *statusWriter, r *http.Request, st *reqStats) {
	err := s.store.Delete(r.PathValue("id"))
	switch {
	case errors.Is(err, store.ErrNotFound):
		notFound(w, st, err)
		return
	case err != nil:
		st.err = err
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.setStoreGauges()
	w.WriteHeader(http.StatusNoContent)
}

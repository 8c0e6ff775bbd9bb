package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"sperr/internal/grid"
	"sperr/internal/store"
)

// storeUnavailable answers requests against a disabled volume store.
func (s *Server) storeUnavailable(w *statusWriter, st *reqStats) {
	st.err = errors.New("server: volume store disabled (start sperrd with -store-dir)")
	http.Error(w, st.err.Error(), http.StatusServiceUnavailable)
}

// notFound answers a lookup for an unknown content address.
func notFound(w *statusWriter, st *reqStats, err error) {
	st.err = err
	http.Error(w, err.Error(), http.StatusNotFound)
}

// setStoreGauges refreshes the store-size gauges after a mutation.
func (s *Server) setStoreGauges() {
	s.reg.Gauge("sperrd_store_volumes").Set(int64(s.store.Len()))
	s.reg.Gauge("sperrd_store_disk_bytes").Set(s.store.TotalBytes())
}

// handleVolumePut ingests a container into the content-addressed store:
// the body is integrity-verified (frame checksums cross-checked against
// the v2 index footer), written to the compressed tier, and its manifest
// entry durably flushed. The response is the manifest entry as JSON, 201
// on first ingest and 200 on an idempotent re-ingest; the content
// address also rides the X-Sperr-Volume-Id header.
func (s *Server) handleVolumePut(w *statusWriter, r *http.Request, st *reqStats) {
	if s.store == nil {
		s.storeUnavailable(w, st)
		return
	}
	if s.cluster != nil {
		s.handleClusterPut(w, r, st)
		return
	}
	body, ok := s.readContainer(w, r, st)
	if !ok {
		return
	}
	meta, created, err := s.store.Put(body)
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

// handleVolumeGet returns a volume's manifest entry (no data decode, no
// disk read).
func (s *Server) handleVolumeGet(w *statusWriter, r *http.Request, st *reqStats) {
	if s.store == nil {
		s.storeUnavailable(w, st)
		return
	}
	meta, ok := s.store.Describe(r.PathValue("id"))
	if !ok {
		notFound(w, st, store.ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		st.err = err
	}
}

// handleVolumeDelete removes a volume from the store (manifest first,
// then blob, then cached slabs).
func (s *Server) handleVolumeDelete(w *statusWriter, r *http.Request, st *reqStats) {
	if s.store == nil {
		s.storeUnavailable(w, st)
		return
	}
	if s.cluster != nil {
		s.handleClusterDelete(w, r, st)
		return
	}
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

// volumeRegion is a validated volume-region request.
type volumeRegion struct {
	meta         *store.Meta
	origin, dims [3]int
	chunks       []int // the chunks the box intersects
	workers      int
}

// handleVolumeRegion serves a cutout of an ingested volume
// (region=x,y,z,nx,ny,nz, optional f32 and workers). On a single node the
// pieces are this store's slabs: chunks resident in the decoded cache cost
// no decode work, and only missing intersecting frames are decoded (and
// offered to the cache). A fully cached read skips admission entirely —
// its memory is the cache's residency, already charged; a read with misses
// is admitted for its worst-case decode arena like any other decode. The
// read's own cache pass sets X-Sperr-Cache (hit, partial or miss) before a
// byte is written. In cluster mode the pieces are scatter-gathered from
// the owning peers instead (handleClusterRegion); either way the response
// streams through streamRegion.
func (s *Server) handleVolumeRegion(w *statusWriter, r *http.Request, st *reqStats) {
	if s.store == nil {
		s.storeUnavailable(w, st)
		return
	}
	origin, rdims, err := parseRegionSpec(param(r, "region"))
	if err != nil {
		badRequest(w, st, err)
		return
	}
	workersReq, err := paramInt(r, "workers")
	if err != nil {
		badRequest(w, st, err)
		return
	}
	meta, ok := s.store.Describe(r.PathValue("id"))
	if !ok {
		notFound(w, st, store.ErrNotFound)
		return
	}
	if err := grid.CheckBox(origin, rdims, meta.Dims); err != nil {
		badRequest(w, st, err)
		return
	}
	rq := volumeRegion{meta, origin, rdims, meta.Intersecting(origin, rdims), s.effWorkers(workersReq)}
	if s.cluster != nil {
		s.handleClusterRegion(w, r, st, rq)
		return
	}

	if plan := s.store.PlanRegion(meta, rq.chunks); plan.MissingChunks > 0 {
		cost := int64(min(rq.workers, plan.MissingChunks)) * plan.MaxChunkSamples
		release := s.admit(w, r, st, min(cost, plan.MissingSamples))
		if release == nil {
			return
		}
		defer release()
	}
	s.streamRegion(w, r, st, origin, rdims, meta.Dims, meta.ChunkDims, func(ra *regionAssembler) (string, error) {
		l, err := s.store.Lookup(meta.ID, rq.chunks)
		if err != nil {
			return "", err
		}
		outcome := "partial"
		switch {
		case l.Misses == 0:
			outcome = "hit"
		case l.Hits == 0:
			outcome = "miss"
		}
		w.Header().Set("X-Sperr-Cache", outcome)
		return "", l.Read(r.Context(), rq.workers, func(ci int, slab []float64, err error) error {
			if err != nil {
				return err
			}
			cg := meta.Chunks[ci]
			o, d, _ := grid.Intersect(origin, rdims, cg.Origin, cg.Dims)
			return ra.addSlab(o, d, cg.Origin, cg.Dims, slab)
		})
	})
}

// streamRegion is the one region response writer: volume reads, cluster
// reads, stateless region reads and decompressions all end here. It arms
// the X-Sperr-Status trailer and runs read, which lands the pieces of the
// box origin+dims of a volume of volDims tiled by chunkDims in the
// assembler's z-bands; each band goes out as soon as it is complete, so
// neither side holds the region. read returns the trailer's status when
// the read completed degraded, "" when it completed whole. An error
// before the first byte is a 4xx; after it, only the trailer carries it.
func (s *Server) streamRegion(w *statusWriter, r *http.Request, st *reqStats, origin, dims, volDims, chunkDims [3]int, read func(*regionAssembler) (string, error)) {
	finish := trailerStatus(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Sperr-Dims", fmt.Sprintf("%d,%d,%d", dims[0], dims[1], dims[2]))

	out := getStreamWriter(w)
	defer putStreamWriter(out) // read returns only once nothing can write a piece any more
	ra := newRegionAssembler(out, origin, dims, volDims, chunkDims, widthOf(r))
	status, err := read(ra)
	if err == nil {
		err = ra.done()
	}
	if err == nil {
		err = out.Flush()
	}
	switch {
	case errors.Is(err, store.ErrNotFound): // deleted between describe and read
		notFound(w, st, err)
	case err != nil:
		s.streamFail(w, r, st, finish, err)
	case status != "":
		w.Header().Set("X-Sperr-Status", status)
	default:
		finish(nil)
	}
}

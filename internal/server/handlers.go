package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sperr"
	"sperr/internal/chunk"
	"sperr/internal/grid"
	"sperr/internal/obs"
	"sperr/internal/rawio"
)

// param reads a request parameter from the query string, falling back to
// an X-Sperr-<name> header, so clients can pass everything either way.
func param(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.Header.Get("X-Sperr-" + name)
}

func paramFloat(r *http.Request, name string) (float64, error) {
	v := param(r, name)
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return f, nil
}

func paramInt(r *http.Request, name string) (int, error) {
	v := param(r, name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

func paramBool(r *http.Request, name string) bool {
	switch strings.ToLower(param(r, name)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// parseTriple parses "a,b,c" into three positive ints.
func parseTriple(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("want nx,ny,nz, got %q", s)
	}
	var d [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return [3]int{}, fmt.Errorf("bad component %q", p)
		}
		d[i] = v
	}
	return d, nil
}

// badRequest answers 400, or 408 when the request body stalled past
// bodyIdleTimeout (see idleBody).
func badRequest(w *statusWriter, st *reqStats, err error) {
	st.err = err
	code := http.StatusBadRequest
	if st.idle {
		code = http.StatusRequestTimeout
	}
	http.Error(w, err.Error(), code)
}

// widthOf maps the f32 parameter to a sample byte width.
func widthOf(r *http.Request) int {
	if paramBool(r, "f32") {
		return 4
	}
	return 8
}

// trailerStatus arms the X-Sperr-Status trailer on a streamed response:
// once the status line is out, mid-stream failures cannot change the
// code, so the trailer is the client's completion witness ("ok" or the
// error text).
func trailerStatus(w *statusWriter) func(error) {
	w.Header().Set("Trailer", "X-Sperr-Status")
	return func(err error) {
		if err != nil {
			w.Header().Set("X-Sperr-Status", "error: "+err.Error())
		} else {
			w.Header().Set("X-Sperr-Status", "ok")
		}
	}
}

// handleCompress streams raw little-endian floats from the request body
// through the streaming Encoder into the response as a container
// stream. Parameters (query or X-Sperr-* header): dims (required,
// "nx,ny,nz"); exactly one of tol / bpp / rmse; f32; chunk ("cx,cy,cz");
// workers; q (quantization factor); codec ("sperr", "sz", "zfp",
// "tthresh", "mgard", or "adaptive" for per-chunk selection — anything
// but sperr requires tol and yields a container-v3 stream). A request for
// the retired SPECK-AC layer (entropy=1) fails with 400 rather than being
// coded raw behind the client's back.
func (s *Server) handleCompress(w *statusWriter, r *http.Request, st *reqStats) {
	dims, err := parseTriple(param(r, "dims"))
	if err != nil {
		badRequest(w, st, fmt.Errorf("dims: %w", err))
		return
	}
	tol, err1 := paramFloat(r, "tol")
	bpp, err2 := paramFloat(r, "bpp")
	rmse, err3 := paramFloat(r, "rmse")
	qf, err4 := paramFloat(r, "q")
	workersReq, err5 := paramInt(r, "workers")
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		badRequest(w, st, err)
		return
	}
	modes := 0
	for _, v := range []float64{tol, bpp, rmse} {
		if v > 0 {
			modes++
		}
	}
	if modes != 1 {
		badRequest(w, st, errors.New("exactly one of tol, bpp, rmse must be positive"))
		return
	}
	if paramBool(r, "entropy") {
		badRequest(w, st, errors.New("entropy: the arithmetic-coded SPECK layer (SPECK-AC) is retired; every stream is coded with raw bits"))
		return
	}
	codecName := strings.ToLower(param(r, "codec"))
	if codecName != "" && codecName != "sperr" && !(tol > 0) {
		badRequest(w, st, fmt.Errorf("codec %s requires tol (PWE mode)", codecName))
		return
	}
	chunkDims := s.cfg.ChunkDims
	if c := param(r, "chunk"); c != "" {
		chunkDims, err = parseTriple(c)
		if err != nil {
			badRequest(w, st, fmt.Errorf("chunk: %w", err))
			return
		}
	}
	workers := s.effWorkers(workersReq)
	width := widthOf(r)

	release := s.admit(w, r, st, engineCost(dims, chunkDims, workers))
	if release == nil {
		return
	}
	defer release()

	opts := &sperr.Options{
		ChunkDims:  chunkDims,
		Workers:    workers,
		QFactor:    qf,
		Instrument: s.chunkInstrument("compress"),
	}
	if codecName != "" && codecName != "adaptive" {
		opts.Codec = codecName
	}
	out := bufio.NewWriterSize(w, 256<<10)
	var enc *sperr.Encoder
	switch {
	case codecName == "adaptive":
		enc, err = sperr.NewEncoderAdaptive(out, dims, tol, opts)
	case tol > 0:
		enc, err = sperr.NewEncoderPWE(out, dims, tol, opts)
	case bpp > 0:
		enc, err = sperr.NewEncoderBPP(out, dims, bpp, opts)
	default:
		enc, err = sperr.NewEncoderRMSE(out, dims, rmse, opts)
	}
	if err != nil {
		badRequest(w, st, err)
		return
	}
	enc.SetContext(r.Context())

	finish := trailerStatus(w)
	w.Header().Set("Content-Type", "application/octet-stream")

	// Pump body -> encoder in bounded batches; peak memory is the engine's
	// in-flight chunk set plus this batch, never the volume.
	n := dims[0] * dims[1] * dims[2]
	fr, err := rawio.NewFloatReader(bufio.NewReaderSize(r.Body, 256<<10), width)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	batch := make([]float64, min(n, 1<<20))
	fed := 0
	for fed < n {
		k, rerr := fr.Read(batch[:min(len(batch), n-fed)])
		if k > 0 {
			if _, werr := enc.Write(batch[:k]); werr != nil {
				s.streamFail(w, r, st, finish, werr)
				enc.Close()
				return
			}
			fed += k
		}
		if rerr != nil {
			if fed < n {
				s.streamFail(w, r, st, finish,
					fmt.Errorf("body ended after %d of %d samples: %w", fed, n, rerr))
				enc.Close()
				return
			}
			break
		}
	}
	if err := enc.Close(); err != nil {
		s.streamFail(w, r, st, finish, err)
		return
	}
	if err := out.Flush(); err != nil {
		s.streamFail(w, r, st, finish, err)
		return
	}
	finish(nil)

	if stats := enc.Stats(); stats != nil {
		bytesIn := int64(stats.NumPoints) * int64(width)
		if stats.CompressedBytes > 0 {
			s.reg.Histogram("sperrd_compression_ratio", obs.DefRatioBuckets).
				Observe(float64(bytesIn) / float64(stats.CompressedBytes))
		}
		s.reg.Counter("sperrd_outliers_total").Add(int64(stats.NumOutliers))
		for name, count := range stats.CodecCounts {
			s.reg.Counter(`sperrd_codec_chunks_total{codec="` + name + `"}`).Add(int64(count))
		}
		s.reg.Gauge("sperrd_engine_peak_inflight_samples").RaiseTo(int64(enc.PeakInFlightSamples()))
	}
}

// streamFail records a mid-stream failure: if the status line is not out
// yet it becomes a 4xx/5xx; otherwise only the trailer and log carry it.
func (s *Server) streamFail(w *statusWriter, r *http.Request, st *reqStats, finish func(error), err error) {
	// A stalled body's read error cancels the context too; it stays a 408.
	if r.Context().Err() != nil && !st.idle {
		st.canceled = true
		err = r.Context().Err()
	}
	st.err = err
	switch {
	case w.status != 0 || w.bytes != 0:
		finish(err)
	case st.canceled:
		http.Error(w, err.Error(), 499) // client closed request (nginx convention)
	default:
		badRequest(w, st, err)
	}
}

// chunkInstrument feeds the engine's ordered per-chunk events into the
// metrics registry.
func (s *Server) chunkInstrument(dir string) func(sperr.ChunkEvent) {
	chunks := s.reg.Counter(`sperrd_chunks_total{endpoint="` + dir + `"}`)
	secs := s.reg.Histogram("sperrd_chunk_seconds", obs.DefLatencyBuckets)
	return func(e sperr.ChunkEvent) {
		chunks.Inc()
		secs.Observe(e.WallTime.Seconds())
	}
}

// handleDecompress streams a container from the request body through the
// streaming Decoder and writes the volume as raw little-endian floats in
// row-major order. Parameters: f32, workers, salvage, fill.
//
// With salvage=1 (query or X-Sperr-salvage header) the client opts into
// degraded decompression: the body is buffered (bounded by
// MaxContainerBytes, as for describe and region) and read by the salvage
// path, which locates frames through the index footer or a resync scan.
// Lost chunks are delivered filled (NaN, or the fill parameter: "zero" or
// any float) instead of failing the stream, and the X-Sperr-Status
// trailer reports "degraded: skipped i,j,..." naming them. The response
// body keeps its full declared extent either way — a degraded volume is
// the same shape, with holes.
func (s *Server) handleDecompress(w *statusWriter, r *http.Request, st *reqStats) {
	workersReq, err := paramInt(r, "workers")
	if err != nil {
		badRequest(w, st, err)
		return
	}
	salvage := paramBool(r, "salvage")
	var (
		src  io.Reader
		body []byte
		fill float64
	)
	if salvage {
		if fill, err = parseFill(r); err != nil {
			badRequest(w, st, err)
			return
		}
		var ok bool
		if body, ok = s.readContainer(w, r, st); !ok {
			return
		}
		src = bytes.NewReader(body)
	} else {
		// The response streams while the body is still arriving. An
		// HTTP/1 server otherwise closes an unread request body once the
		// first band goes out, and the decode reads a closed body. The body
		// is closed before the handler returns: closed after, its read to
		// EOF would restart net/http's background read of the connection
		// while the next request on it is being read.
		_ = http.NewResponseController(w).EnableFullDuplex()
		defer r.Body.Close()
		src = bufio.NewReaderSize(r.Body, 256<<10)
	}
	dec, err := sperr.NewDecoder(src)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	dims := dec.Dims()
	chunkDims := dec.ChunkDims()
	workers := s.effWorkers(workersReq)

	release := s.admit(w, r, st, engineCost(dims, chunkDims, workers))
	if release == nil {
		return
	}
	defer release()

	dec.SetWorkers(workers)
	dec.SetContext(r.Context())
	s.streamRegion(w, r, st, [3]int{}, dims, dims, chunkDims, func(ra *regionAssembler) (string, error) {
		if !salvage {
			// ra.add locks where pieces meet, so chunks go in on their
			// decode goroutines.
			err := dec.ForEachChunkParallel(func(ch sperr.DecodedChunk) error {
				return ra.add(ch.Origin, ch.Dims, ch.Data)
			})
			s.reg.Gauge("sperrd_engine_peak_inflight_samples").RaiseTo(int64(dec.PeakInFlightSamples()))
			return "", err
		}
		rep, err := chunk.Salvage(body, fill, workers, func(_ int, ch grid.Chunk, data []float64) error {
			if err := r.Context().Err(); err != nil {
				return err
			}
			return ra.add([3]int{ch.X0, ch.Y0, ch.Z0}, [3]int{ch.Dims.NX, ch.Dims.NY, ch.Dims.NZ}, data)
		})
		if err != nil {
			return "", err
		}
		s.reg.Counter("sperrd_salvage_requests_total").Inc()
		s.reg.Counter("sperrd_salvage_chunks_recovered_total").Add(int64(rep.Recovered))
		s.reg.Counter("sperrd_salvage_chunks_lost_total").Add(int64(rep.Skipped))
		if !rep.Degraded() {
			return "", nil
		}
		s.reg.Counter("sperrd_salvage_degraded_total").Inc()
		return "degraded: skipped " + intList(rep.SkippedIndices()), nil
	})
}

// intList renders chunk indices as "1,3,7" for the degraded trailer.
func intList(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// readContainer buffers a container body (describe/region need random
// access to the index footer), bounded by MaxContainerBytes. A declared
// Content-Length over the cap is refused before a byte is read. Of one
// under it, up to bodyPrealloc is allocated up front, so a body of that
// size lands in one buffer; the rest is allocated as it arrives, so a
// header that declares the cap and stalls holds no more than that.
func (s *Server) readContainer(w *statusWriter, r *http.Request, st *reqStats) ([]byte, bool) {
	limit, n := s.cfg.MaxContainerBytes, r.ContentLength
	var body bytes.Buffer
	if n <= limit {
		body.Grow(int(min(max(n, 0), bodyPrealloc)) + bytes.MinRead)
		_, err := body.ReadFrom(io.LimitReader(r.Body, limit+1))
		if err != nil {
			st.canceled = r.Context().Err() != nil && !st.idle
			badRequest(w, st, err)
			return nil, false
		}
		n = int64(body.Len())
	}
	if n > limit {
		st.err = fmt.Errorf("container exceeds %d-byte cap", limit)
		http.Error(w, st.err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body.Bytes(), true
}

// bodyPrealloc is the most of a declared body allocated before it arrives.
const bodyPrealloc = 4 << 20

// handleDescribe returns the container's StreamInfo as JSON without
// decoding any data (header + index footer only on v2).
func (s *Server) handleDescribe(w *statusWriter, r *http.Request, st *reqStats) {
	body, ok := s.readContainer(w, r, st)
	if !ok {
		return
	}
	info, err := sperr.Describe(body)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(info); err != nil {
		st.err = err
	}
}

// parseRegionSpec parses "x,y,z,nx,ny,nz" into an origin and an extent.
func parseRegionSpec(spec string) (origin, dims [3]int, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 6 {
		return origin, dims, fmt.Errorf("region must be x,y,z,nx,ny,nz, got %q", spec)
	}
	var vals [6]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 || (i >= 3 && v <= 0) {
			return origin, dims, fmt.Errorf("bad region component %q", p)
		}
		vals[i] = v
	}
	return [3]int{vals[0], vals[1], vals[2]}, [3]int{vals[3], vals[4], vals[5]}, nil
}

// handleRegion decodes only the chunks intersecting the requested cutout
// (region=x,y,z,nx,ny,nz) of the buffered container and streams the region
// as raw floats through streamRegion, band by band, under the
// X-Sperr-Status trailer. A bad box or a hit shard stub is refused with
// 400 before the response starts. Parameters: region (required), f32,
// workers.
func (s *Server) handleRegion(w *statusWriter, r *http.Request, st *reqStats) {
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
	body, ok := s.readContainer(w, r, st)
	if !ok {
		return
	}
	rg, err := chunk.OpenRegion(body, origin, rdims)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	workers := s.effWorkers(workersReq)

	release := s.admit(w, r, st, engineCost(rg.VolumeDims, rg.ChunkDims, workers))
	if release == nil {
		return
	}
	defer release()

	s.streamRegion(w, r, st, origin, rdims, rg.VolumeDims, rg.ChunkDims, func(ra *regionAssembler) (string, error) {
		return "", rg.Read(r.Context(), workers, ra.addSlab)
	})
}

// handleMetrics serves the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

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

func badRequest(w *statusWriter, st *reqStats, err error) {
	st.err = err
	http.Error(w, err.Error(), http.StatusBadRequest)
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
	batch := make([]float64, minInt(n, 1<<20))
	fed := 0
	for fed < n {
		k, rerr := fr.Read(batch[:minInt(len(batch), n-fed)])
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
	if r.Context().Err() != nil {
		st.canceled = true
		err = r.Context().Err()
	}
	st.err = err
	if w.status == 0 && w.bytes == 0 {
		code := http.StatusBadRequest
		if st.canceled {
			code = 499 // client closed request (nginx convention)
		}
		http.Error(w, err.Error(), code)
		return
	}
	finish(err)
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
	width := widthOf(r)

	release := s.admit(w, r, st, engineCost(dims, chunkDims, workers))
	if release == nil {
		return
	}
	defer release()

	dec.SetWorkers(workers)
	dec.SetContext(r.Context())

	finish := trailerStatus(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Sperr-Dims", fmt.Sprintf("%d,%d,%d", dims[0], dims[1], dims[2]))

	out := bufio.NewWriterSize(w, 256<<10)
	ra := newRegionAssembler(out, [3]int{}, dims, dims, chunkDims, width)
	var rep *chunk.SalvageReport
	if salvage {
		rep, err = chunk.Salvage(body, fill, workers, func(_ int, ch grid.Chunk, data []float64) error {
			if err := r.Context().Err(); err != nil {
				return err
			}
			return ra.add([3]int{ch.X0, ch.Y0, ch.Z0}, [3]int{ch.Dims.NX, ch.Dims.NY, ch.Dims.NZ}, data)
		})
	} else {
		err = dec.ForEachChunk(func(ch sperr.DecodedChunk) error {
			return ra.add(ch.Origin, ch.Dims, ch.Data)
		})
	}
	if err == nil {
		err = ra.done()
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		s.streamFail(w, r, st, finish, err)
		return
	}
	if salvage {
		s.reg.Counter("sperrd_salvage_requests_total").Inc()
		s.reg.Counter("sperrd_salvage_chunks_recovered_total").Add(int64(rep.Recovered))
		s.reg.Counter("sperrd_salvage_chunks_lost_total").Add(int64(rep.Skipped))
		if rep.Degraded() {
			s.reg.Counter("sperrd_salvage_degraded_total").Inc()
			w.Header().Set("X-Sperr-Status", "degraded: skipped "+intList(rep.SkippedIndices()))
			return
		}
	}
	finish(nil)
	s.reg.Gauge("sperrd_engine_peak_inflight_samples").RaiseTo(int64(dec.PeakInFlightSamples()))
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
// access to the index footer), bounded by MaxContainerBytes.
func (s *Server) readContainer(w *statusWriter, r *http.Request, st *reqStats) ([]byte, bool) {
	max := s.cfg.MaxContainerBytes
	body, err := io.ReadAll(io.LimitReader(r.Body, max+1))
	if err != nil {
		st.err = err
		if r.Context().Err() != nil {
			st.canceled = true
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if int64(len(body)) > max {
		st.err = fmt.Errorf("container exceeds %d-byte cap", max)
		http.Error(w, st.err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

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
// (region=x,y,z,nx,ny,nz) and returns the region as raw floats.
// Parameters: region (required), f32, workers.
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
	info, err := sperr.Describe(body)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	workers := s.effWorkers(workersReq)
	width := widthOf(r)

	release := s.admit(w, r, st, engineCost(info.Dims, info.ChunkDims, workers))
	if release == nil {
		return
	}
	defer release()

	// The float32 path rides the same workers-aware decode as float64:
	// DecompressRegionWorkers under the hood, narrowed at serialization.
	data, err := sperr.DecompressRegionWorkers(body, origin, rdims, workers)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	raw, err := rawio.EncodeFloats(data, width)
	if err != nil {
		badRequest(w, st, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.Header().Set("X-Sperr-Dims", fmt.Sprintf("%d,%d,%d", rdims[0], rdims[1], rdims[2]))
	if _, err := w.Write(raw); err != nil {
		st.err = err
	}
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Package server is sperrd's service layer: a stdlib-only net/http
// boundary around the streaming sperr engine. It owns everything a
// production serving stack needs that the codec should not know about —
// admission control over a shared in-flight-samples budget, FIFO queueing
// with deadlines, per-request cancellation threaded into the chunk
// workers, graceful drain, structured request logs, and a metrics
// surface — while volumes stream request-body-to-response-body through
// sperr.Encoder/Decoder without ever being fully memory-resident.
package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/obs"
	"sperr/internal/store"
)

// Config tunes the service layer. The zero value serves with sane
// defaults (see each field).
type Config struct {
	// BudgetSamples caps the aggregate worst-case in-flight samples across
	// all admitted requests (one sample = one float64 in a chunk-worker
	// arena, so this times 8 bounds the engines' arena bytes). <= 0
	// defaults to 64 Mi samples (512 MiB of arenas).
	BudgetSamples int64
	// MaxQueue bounds the FIFO admission wait queue; requests beyond it
	// are rejected with 429 immediately. < 0 means 0 (no queueing);
	// 0 defaults to 64.
	MaxQueue int
	// QueueWait bounds how long an admitted-but-waiting request may queue
	// before a 429. <= 0 defaults to 10s.
	QueueWait time.Duration
	// Workers caps the per-request engine worker budget. <= 0 means
	// GOMAXPROCS. A request's ?workers= parameter is clamped to this.
	Workers int
	// ChunkDims is the compress-side chunk tiling bound (zero components
	// default to the engine's 256).
	ChunkDims [3]int
	// MaxContainerBytes caps the buffered container body of /v1/describe,
	// /v1/region and /v1/decompress?salvage=1 (those need random access to
	// the index footer, so they cannot stream). <= 0 defaults to 1 GiB.
	MaxContainerBytes int64
	// LogWriter receives one structured (JSON) log line per request.
	// nil discards logs.
	LogWriter io.Writer
	// Registry is the metrics registry to instrument into. nil makes a
	// fresh one.
	Registry *obs.Registry
	// StoreDir, when non-empty, enables the content-addressed volume
	// store (PUT /v1/volumes, GET /v1/volumes/{id}/region, ...) rooted at
	// that directory.
	StoreDir string
	// CacheSamples caps the decoded-slab cache residency in samples.
	// <= 0 defaults to BudgetSamples/4. The residency is charged against
	// the admission budget, so the cache and in-flight decodes share one
	// ceiling regardless of this cap.
	CacheSamples int64
	// NodeID names this node; when set, every response carries it in the
	// X-Sperr-Node header. Required in cluster mode.
	NodeID string
	// Peers, when non-empty, enables cluster mode: the full roster as
	// "id=url" entries, including this node's own id (its URL is what
	// other peers dial). Requires StoreDir and NodeID. Volume ingest
	// shards across the roster and region reads scatter-gather.
	Peers []string
	// PeerTimeout bounds one peer RPC attempt (<= 0 defaults to 2s); a
	// region read fails a peer's chunks over to their next replica after
	// it.
	PeerTimeout time.Duration
	// Replicas is how many distinct peers own each chunk (0 defaults to
	// cluster.DefaultReplicas; clamped to the roster size).
	Replicas int
	// ScrubInterval is the pause between anti-entropy scrub passes in
	// cluster mode (0 defaults to cluster.DefaultScrubInterval; negative
	// disables the scrubber).
	ScrubInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.BudgetSamples <= 0 {
		c.BudgetSamples = 64 << 20
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxContainerBytes <= 0 {
		c.MaxContainerBytes = 1 << 30
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.CacheSamples <= 0 {
		c.CacheSamples = c.BudgetSamples / 4
	}
	return c
}

// Server is one sperrd instance: handlers plus the shared service state.
type Server struct {
	cfg       Config
	adm       *Admission
	reg       *obs.Registry
	log       *slog.Logger
	mux       *http.ServeMux
	hs        *http.Server
	store     *store.Store
	cluster   *cluster.Cluster
	stopScrub func()
	draining  atomic.Bool
}

// New builds a Server from cfg. The error is non-nil only when the
// configured volume store cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
	}
	logW := cfg.LogWriter
	if logW == nil {
		logW = io.Discard
	}
	s.log = slog.New(slog.NewJSONHandler(logW, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.adm = NewAdmission(cfg.BudgetSamples, cfg.MaxQueue)
	inUse := s.reg.Gauge("sperrd_admission_inuse_samples")
	peak := s.reg.Gauge("sperrd_admission_peak_samples")
	depth := s.reg.Gauge("sperrd_admission_queue_depth")
	s.adm.onChange = func(u int64, q int) {
		inUse.Set(u)
		peak.RaiseTo(u)
		depth.Set(int64(q))
	}

	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{
			CacheSamples: cfg.CacheSamples,
			Charge:       s.adm.TryAcquire,
			Release:      s.adm.Release,
			Hooks:        s.storeHooks(),
		})
		if err != nil {
			return nil, err
		}
		s.store = st
		// Under admission pressure, cold cached slabs yield their budget
		// to in-flight decodes before any request queues.
		s.adm.SetReclaimer(st.Cache().Shed)
	}

	if len(cfg.Peers) > 0 {
		if s.store == nil {
			return nil, errors.New("server: cluster mode requires a store dir")
		}
		if cfg.NodeID == "" {
			return nil, errors.New("server: cluster mode requires a node id")
		}
		roster := make(map[string]string, len(cfg.Peers))
		for _, p := range cfg.Peers {
			id, u, ok := strings.Cut(p, "=")
			if !ok || id == "" || u == "" {
				return nil, fmt.Errorf("server: peer %q: want id=url", p)
			}
			roster[id] = u
		}
		cl, err := cluster.New(cluster.Config{
			Self:     cfg.NodeID,
			Peers:    roster,
			Timeout:  cfg.PeerTimeout,
			Replicas: cfg.Replicas,
			Hooks:    s.clusterHooks(),
		}, s.store)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		if cfg.ScrubInterval >= 0 {
			s.stopScrub = cl.StartScrubber(cfg.ScrubInterval, func(r *cluster.ScrubReport) {
				if r.Damaged == 0 && r.Repaired == 0 && r.Discovered == 0 && len(r.Errors) == 0 {
					return // clean pass: counted by the metric, not the log
				}
				s.log.Info("scrub",
					"volumes", r.Volumes,
					"damaged", r.Damaged,
					"repaired", r.Repaired,
					"discovered", r.Discovered,
					"errors", len(r.Errors))
			})
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compress", s.instrumented("compress", s.handleCompress))
	s.mux.HandleFunc("POST /v1/decompress", s.instrumented("decompress", s.handleDecompress))
	s.mux.HandleFunc("POST /v1/describe", s.instrumented("describe", s.handleDescribe))
	s.mux.HandleFunc("POST /v1/region", s.instrumented("region", s.handleRegion))
	s.mux.HandleFunc("PUT /v1/volumes", s.instrumented("ingest", s.handleVolumePut))
	s.mux.HandleFunc("GET /v1/volumes/{id}", s.instrumented("volume", s.handleVolumeGet))
	s.mux.HandleFunc("DELETE /v1/volumes/{id}", s.instrumented("volume_delete", s.handleVolumeDelete))
	s.mux.HandleFunc("GET /v1/volumes/{id}/region", s.instrumented("region_cached", s.handleVolumeRegion))
	if s.cluster != nil {
		s.mux.HandleFunc("PUT /v1/internal/chunks/{id}", s.instrumented("peer_ingest", s.handleInternalPut))
		s.mux.HandleFunc("GET /v1/internal/chunks/{id}", s.instrumented("peer_chunks", s.handleInternalChunks))
		s.mux.HandleFunc("DELETE /v1/internal/chunks/{id}", s.instrumented("peer_delete", s.handleInternalDelete))
		s.mux.HandleFunc("POST /v1/internal/repair/{id}", s.instrumented("peer_repair", s.handleInternalRepair))
		s.mux.HandleFunc("GET /v1/internal/manifest", s.instrumented("peer_manifest", s.handleInternalManifest))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.reg.PublishExpvar("sperrd")
	return s, nil
}

// storeHooks wires store and cache events into the metrics registry.
func (s *Server) storeHooks() store.Hooks {
	ingests := s.reg.Counter("sperrd_store_ingests_total")
	rejected := s.reg.Counter("sperrd_store_ingest_rejected_total")
	ingestBytes := s.reg.Histogram("sperrd_store_ingest_bytes", obs.DefBytesBuckets)
	deletes := s.reg.Counter("sperrd_store_deletes_total")
	hits := s.reg.Counter("sperrd_cache_hits_total")
	misses := s.reg.Counter("sperrd_cache_misses_total")
	decodes := s.reg.Counter("sperrd_store_chunk_decodes_total")
	evictions := s.reg.Counter("sperrd_cache_evictions_total")
	declined := s.reg.Counter("sperrd_cache_declined_total")
	resident := s.reg.Gauge("sperrd_cache_resident_samples")
	peak := s.reg.Gauge("sperrd_cache_peak_samples")
	return store.Hooks{
		OnIngest: func(bytes int64, created bool) {
			ingests.Inc()
			if created {
				ingestBytes.Observe(float64(bytes))
			}
		},
		OnReject:  func() { rejected.Inc() },
		OnDelete:  func() { deletes.Inc() },
		OnHit:     func(chunks int) { hits.Add(int64(chunks)) },
		OnMiss:    func(chunks int) { misses.Add(int64(chunks)) },
		OnDecode:  func(chunks int) { decodes.Add(int64(chunks)) },
		OnEvict:   func(samples int64) { evictions.Inc() },
		OnDecline: func(samples int64) { declined.Inc() },
		OnResident: func(samples int64) {
			resident.Set(samples)
			peak.RaiseTo(samples)
		},
	}
}

// clusterHooks wires cluster peer traffic into the metrics registry.
// Every counter is created here at startup so it reports 0 before its
// first event — servesmoke and TestClusterScrubHeals read them.
func (s *Server) clusterHooks() cluster.Hooks {
	s.reg.Counter("sperrd_cluster_degraded_total")
	filled := s.reg.Counter("sperrd_cluster_filled_chunks_total")
	failover := s.reg.Counter("sperrd_replica_failover_chunks_total")
	breakerOpens := s.reg.Counter("sperrd_cluster_breaker_opens_total")
	scrubRuns := s.reg.Counter("sperrd_scrub_runs_total")
	scrubDamaged := s.reg.Counter("sperrd_scrub_damaged_chunks_total")
	scrubRepaired := s.reg.Counter("sperrd_scrub_repaired_chunks_total")
	return cluster.Hooks{
		OnPeerRequest: func(peer, outcome string) {
			s.reg.Counter(`sperrd_cluster_requests_total{peer="` + peer +
				`",outcome="` + outcome + `"}`).Inc()
		},
		OnFilled:        func(chunks int) { filled.Add(int64(chunks)) },
		OnFailover:      func(chunks int) { failover.Add(int64(chunks)) },
		OnBreakerOpen:   func(string) { breakerOpens.Inc() },
		OnScrubRun:      func() { scrubRuns.Inc() },
		OnScrubDamaged:  func(chunks int) { scrubDamaged.Add(int64(chunks)) },
		OnScrubRepaired: func(chunks int) { scrubRepaired.Add(int64(chunks)) },
	}
}

// Store exposes the content-addressed volume store (nil when disabled).
func (s *Server) Store() *store.Store { return s.store }

// Cluster exposes the distribution layer (nil outside cluster mode).
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Handler returns the root handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Admission exposes the admission controller (tests assert on its Peak).
func (s *Server) Admission() *Admission { return s.adm }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	err := s.hs.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains gracefully: new work is refused (503 + Retry-After,
// queued waiters rejected), in-flight requests run to completion bounded
// by ctx, then the listener closes and the volume store flushes its
// manifest.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.Drain()
	if s.stopScrub != nil {
		s.stopScrub()
		s.stopScrub = nil
	}
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close releases server resources without the HTTP drain — the teardown
// path for handler-only (httptest) servers.
func (s *Server) Close() error {
	if s.stopScrub != nil {
		s.stopScrub()
		s.stopScrub = nil
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// statusWriter records status code and bytes written, and exposes
// SetTrailer passthrough via the embedded ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// bodyIdle is how long a request body may go without delivering a byte
// before its read fails and the request is answered 408.
const bodyIdle = 30 * time.Second

// bodyIdleTimeout is bodyIdle, shortened by tests.
var bodyIdleTimeout = bodyIdle

// idleBody gives every read of a request body an idle deadline, refreshed
// on each read, so a client that stalls mid-body fails the read instead of
// holding its handler goroutine, buffers and admission charge for as long
// as it keeps the connection open. The deadline is cleared when the body
// ends: left armed, it would fire in the server's background read of the
// idle connection and cancel the request's context during a long encode.
type idleBody struct {
	io.ReadCloser
	rc *http.ResponseController
	st *reqStats
}

func (b *idleBody) Read(p []byte) (int, error) {
	// A ResponseWriter that cannot set deadlines (an in-process recorder)
	// reads without one; nothing else is lost.
	_ = b.rc.SetReadDeadline(time.Now().Add(bodyIdleTimeout))
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		_ = b.rc.SetReadDeadline(time.Time{})
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		b.st.idle = true
	}
	return n, err
}

// countingReader counts body bytes in.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// reqStats is the per-request scratchpad the handlers fill in for the
// access log and metrics.
type reqStats struct {
	queueWait time.Duration
	err       error
	canceled  bool
	idle      bool // the request body stalled past bodyIdleTimeout
}

type handlerFunc func(w *statusWriter, r *http.Request, st *reqStats)

// instrumented wraps a handler with the cross-cutting service concerns:
// drain refusal, request metrics, latency histogram, and the structured
// access log.
func (s *Server) instrumented(endpoint string, h handlerFunc) http.HandlerFunc {
	reqSec := s.reg.Histogram(`sperrd_request_seconds{endpoint="`+endpoint+`"}`, obs.DefLatencyBuckets)
	queueSec := s.reg.Histogram("sperrd_queue_wait_seconds", obs.DefLatencyBuckets)
	inflight := s.reg.Gauge("sperrd_requests_inflight")
	canceled := s.reg.Counter("sperrd_requests_canceled_total")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		st := &reqStats{}
		if s.cfg.NodeID != "" {
			// Which node answered — operators read placement off this.
			sw.Header().Set("X-Sperr-Node", s.cfg.NodeID)
		}
		inflight.Add(1)
		cr := &countingReader{r: r.Body}
		if r.Body != http.NoBody {
			// Only a body that can deliver bytes needs a deadline; a
			// bodiless read (every GET) pays no allocation for one.
			cr.r = &idleBody{r.Body, http.NewResponseController(sw), st}
		}
		r.Body = struct {
			io.Reader
			io.Closer
		}{cr, r.Body}

		if s.draining.Load() {
			st.err = ErrDraining
			s.reject(sw, ErrDraining)
		} else {
			h(sw, r, st)
		}

		dur := time.Since(start)
		inflight.Add(-1)
		reqSec.Observe(dur.Seconds())
		if st.queueWait > 0 {
			queueSec.Observe(st.queueWait.Seconds())
		}
		if st.canceled {
			canceled.Inc()
		}
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.reg.Counter(`sperrd_requests_total{endpoint="` + endpoint + `",code="` +
			strconv.Itoa(code) + `"}`).Inc()
		s.reg.Counter(`sperrd_bytes_in_total{endpoint="` + endpoint + `"}`).Add(cr.n)
		s.reg.Counter(`sperrd_bytes_out_total{endpoint="` + endpoint + `"}`).Add(sw.bytes)

		attrs := []any{
			"endpoint", endpoint,
			"remote", r.RemoteAddr,
			"status", code,
			"bytes_in", cr.n,
			"bytes_out", sw.bytes,
			"dur_ms", float64(dur.Microseconds()) / 1000,
		}
		if st.queueWait > 0 {
			attrs = append(attrs, "queue_ms", float64(st.queueWait.Microseconds())/1000)
		}
		if st.canceled {
			attrs = append(attrs, "canceled", true)
		}
		if st.err != nil {
			attrs = append(attrs, "err", st.err.Error())
			s.log.Error("request", attrs...)
		} else {
			s.log.Info("request", attrs...)
		}
	}
}

// reject maps an admission error to its HTTP response. Transient overload
// (queue full, wait deadline) is 429; never-admissible or draining is
// 503. Both carry Retry-After.
func (s *Server) reject(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	code := http.StatusServiceUnavailable
	reason := "draining"
	switch err {
	case ErrQueueFull:
		code, reason = http.StatusTooManyRequests, "queue_full"
	case ErrWaitDeadline:
		code, reason = http.StatusTooManyRequests, "wait_deadline"
	case ErrTooLarge:
		reason = "too_large"
	}
	s.reg.Counter(`sperrd_admission_rejected_total{reason="` + reason + `"}`).Inc()
	http.Error(w, err.Error(), code)
}

// admit runs the admission handshake for a request costing cost samples
// and returns a release func (nil when rejected, with the response
// already written).
func (s *Server) admit(w *statusWriter, r *http.Request, st *reqStats, cost int64) func() {
	wait, err := s.adm.Acquire(r.Context(), cost, s.cfg.QueueWait)
	st.queueWait = wait
	if err != nil {
		if r.Context().Err() != nil {
			st.canceled = true
		}
		st.err = err
		s.reject(w, err)
		return nil
	}
	return func() { s.adm.Release(cost) }
}

// engineCost is a request's admission charge: the worst-case sample count
// its engine holds in worker arenas at once — workers x clamped chunk
// size, never more than the volume itself. The engines' PeakInFlightSamples
// witnesses stay at or under this by construction.
func engineCost(dims, chunkDims [3]int, workers int) int64 {
	points := int64(dims[0]) * int64(dims[1]) * int64(dims[2])
	c := int64(1)
	for i := 0; i < 3; i++ {
		e := chunkDims[i]
		if e <= 0 {
			e = sperr.DefaultChunkDim
		}
		if e > dims[i] {
			e = dims[i]
		}
		c *= int64(e)
	}
	cost := int64(workers) * c
	if cost > points {
		cost = points
	}
	return cost
}

// effWorkers clamps a client-requested worker count to the server cap.
func (s *Server) effWorkers(req int) int {
	if req <= 0 || req > s.cfg.Workers {
		return s.cfg.Workers
	}
	return req
}

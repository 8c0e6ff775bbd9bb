// Command sperrd is the SPERR compression service: a stdlib-only HTTP
// daemon that streams volumes through the sperr streaming engine with
// admission control, per-request cancellation, graceful shutdown, and a
// metrics surface.
//
// Endpoints:
//
//	POST /v1/compress    raw floats in -> container v2 out
//	                     (?dims=nx,ny,nz and one of ?tol/?bpp/?rmse;
//	                      optional ?f32, ?chunk, ?workers, ?q, ?codec)
//	POST /v1/decompress  container in -> raw floats out (?f32, ?workers)
//	POST /v1/describe    container in -> JSON stream info
//	POST /v1/region      container in -> raw floats of the cutout
//	                     (?region=x,y,z,nx,ny,nz, optional ?f32, ?workers)
//
// With -store-dir set, the content-addressed volume store is enabled:
//
//	PUT    /v1/volumes             ingest a container; verified, stored
//	                               once, named by content address
//	                               (X-Sperr-Volume-Id, 201/200 idempotent)
//	GET    /v1/volumes/{id}        manifest entry (geometry, checksum)
//	DELETE /v1/volumes/{id}        drop blob, manifest entry, cached slabs
//	GET    /v1/volumes/{id}/region cutout served through the decoded-slab
//	                               cache (?region=..., ?f32, ?workers;
//	                               X-Sperr-Cache: hit|partial|miss),
//	                               streamed with an X-Sperr-Status trailer
//
// With -peers and -node-id set (on top of -store-dir), the daemon joins
// a sharded cluster: a volume PUT against any node splits the container
// at chunk-frame boundaries and ships each peer the frames a consistent
// hash ring assigns it; a region GET scatter-gathers the owning peers
// and merges the pieces bit-identically to a single-node read. Each
// chunk lives on -replicas distinct peers (default 2), so a read
// survives a node loss by failing over to the next replica in ring
// order, and a background anti-entropy scrubber (-scrub-interval)
// re-fetches damaged or missing chunks from surviving replicas. A peer
// fetch that fails, or outlasts -peer-timeout, fails its chunks over; a
// peer that keeps failing is skipped by its circuit breaker for a
// cooldown. Only when every replica is gone does a read degrade (fill
// value + "degraded" status trailer naming the unreachable peers)
// instead of failing. Peers talk over:
//
//	PUT    /v1/internal/chunks/{id}  ingest a shard (peer-to-peer)
//	GET    /v1/internal/chunks/{id}  stream owned chunk∩region frames
//	DELETE /v1/internal/chunks/{id}  drop the local shard
//	POST   /v1/internal/repair/{id}  answer a shard of locally-intact chunks
//	GET    /v1/internal/manifest     list resident volumes (id, chunk count)
//
// Every response carries X-Sperr-Node naming the answering node.
//
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/vars     expvar (includes the sperrd registry)
//	GET  /healthz        liveness (503 while draining)
//
// Example:
//
//	sperrd -addr :8080 -budget-mb 512 &
//	curl -s --data-binary @field.f64 \
//	  'localhost:8080/v1/compress?dims=256,256,256&tol=1e-6' > field.sperr
//	curl -s --data-binary @field.sperr localhost:8080/v1/decompress > recon.f64
//
// SIGINT/SIGTERM trigger a graceful drain: queued requests are refused
// with 503, in-flight requests finish (bounded by -drain-timeout), then
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sperr/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file (for harnesses)")
		budgetMB     = flag.Int64("budget-mb", 512, "in-flight sample budget, in MiB of worker arenas (8 bytes/sample)")
		maxQueue     = flag.Int("max-queue", 64, "admission wait-queue length; beyond it requests get 429")
		queueWait    = flag.Duration("queue-wait", 10*time.Second, "max time a request may wait for admission before 429")
		workers      = flag.Int("workers", 0, "per-request engine worker cap (default GOMAXPROCS)")
		chunkStr     = flag.String("chunk", "", "compress-side chunk extent cx,cy,cz (default 256,256,256)")
		maxContainer = flag.Int64("max-container-mb", 1024, "max buffered container size for describe/region, MiB")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress per-request logs")
		storeDir     = flag.String("store-dir", "", "content-addressed volume store directory (empty disables /v1/volumes)")
		cacheMB      = flag.Int64("cache-mb", 0, "decoded-slab cache residency cap, MiB (8 bytes/sample; 0 = budget/4)")
		nodeID       = flag.String("node-id", "", "this node's name in the cluster roster (required with -peers)")
		peersStr     = flag.String("peers", "", "cluster roster as comma-separated id=url entries, including this node (enables sharded multi-node mode; requires -node-id and -store-dir)")
		peerTimeout  = flag.Duration("peer-timeout", 0, "max duration of one peer RPC attempt; a read fails a slow peer's chunks over to their next replica after it (0 = 2s)")
		replicas     = flag.Int("replicas", 0, "distinct peers owning each chunk (0 = 2, clamped to roster size); with 2+, reads survive a node loss undegraded")
		scrubEvery   = flag.Duration("scrub-interval", 0, "pause between anti-entropy scrub passes (0 = 30s, negative disables the scrubber)")
	)
	flag.Parse()

	cfg := server.Config{
		BudgetSamples:     *budgetMB << 20 / 8,
		MaxQueue:          *maxQueue,
		QueueWait:         *queueWait,
		Workers:           *workers,
		MaxContainerBytes: *maxContainer << 20,
		StoreDir:          *storeDir,
		CacheSamples:      *cacheMB << 20 / 8,
		NodeID:            *nodeID,
		PeerTimeout:       *peerTimeout,
		Replicas:          *replicas,
		ScrubInterval:     *scrubEvery,
	}
	if *peersStr != "" {
		for _, p := range strings.Split(*peersStr, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		if len(cfg.Peers) > 0 && (*nodeID == "" || *storeDir == "") {
			fatal("-peers requires -node-id and -store-dir")
		}
	}
	if !*quiet {
		cfg.LogWriter = os.Stderr
	}
	if *chunkStr != "" {
		var c [3]int
		if _, err := fmt.Sscanf(*chunkStr, "%d,%d,%d", &c[0], &c[1], &c[2]); err != nil ||
			c[0] <= 0 || c[1] <= 0 || c[2] <= 0 {
			fatal("bad -chunk %q (want cx,cy,cz)", *chunkStr)
		}
		cfg.ChunkDims = c
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal("write %s: %v", *addrFile, err)
		}
	}
	fmt.Fprintf(os.Stderr, "sperrd: listening on %s (budget %d samples, queue %d, workers cap %d)\n",
		bound, cfg.BudgetSamples, cfg.MaxQueue, cfg.Workers)

	s, err := server.New(cfg)
	if err != nil {
		fatal("init: %v", err)
	}
	if *storeDir != "" {
		fmt.Fprintf(os.Stderr, "sperrd: volume store at %s (%d volumes, cache cap %d samples)\n",
			*storeDir, s.Store().Len(), s.Store().Cache().Cap())
	}
	if len(cfg.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "sperrd: cluster node %s in a %d-peer roster (%d replicas per chunk)\n",
			*nodeID, len(cfg.Peers), s.Cluster().Replicas())
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "sperrd: %v, draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancelCtx := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancelCtx()
		if err := s.Shutdown(ctx); err != nil {
			fatal("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			fatal("serve: %v", err)
		}
		fmt.Fprintln(os.Stderr, "sperrd: drained, bye")
	case err := <-errc:
		if err != nil {
			fatal("serve: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sperrd: "+format+"\n", args...)
	os.Exit(1)
}

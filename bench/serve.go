package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sperr/internal/server"
)

// scrubPolicy and fsyncPolicy are printed with every run: the scrubber is
// off so no background pass lands in a timed round, and the store's only
// durability policy is in force (blob and manifest are fsynced before an
// ingest is acknowledged).
const (
	scrubPolicy = "off (ScrubInterval < 0)"
	fsyncPolicy = "store default: blob and manifest fsynced before ack"
)

// node is one in-process sperrd: server.New behind an http.Server on a
// loopback listener. The harness owns the http.Server so that it can also
// kill a node the way a crash would (close listener and connections).
type node struct {
	id     string
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error // Serve's return value
}

// fleet is the serving side of a workload: one node, or several wired
// into one roster, on fresh store directories under dir.
type fleet struct {
	dir   string
	nodes []*node
}

// startFleet boots n nodes (n == 1: a plain single node) with the given
// decoded-cache capacity. Listeners are opened before the servers so every
// roster entry can name its peer's address.
func startFleet(tmp string, n int, cacheSamples int64) (*fleet, error) {
	dir, err := os.MkdirTemp(tmp, "stores-")
	if err != nil {
		return nil, err
	}
	fl := &fleet{dir: dir}
	lns := make([]net.Listener, n)
	var roster []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			os.RemoveAll(dir)
			return nil, err
		}
		lns[i] = ln
		roster = append(roster, fmt.Sprintf("node-%c=http://%s", 'a'+i, ln.Addr()))
	}
	for i, ln := range lns {
		id := fmt.Sprintf("node-%c", 'a'+i)
		cfg := server.Config{
			StoreDir:      filepath.Join(dir, id),
			CacheSamples:  cacheSamples,
			ScrubInterval: -1,
		}
		if n > 1 {
			cfg.NodeID = id
			cfg.Peers = roster
			cfg.Replicas = 2
		}
		srv, err := server.New(cfg)
		if err != nil {
			for _, open := range lns[i:] {
				open.Close()
			}
			fl.stop()
			return nil, err
		}
		nd := &node{
			id:     id,
			srv:    srv,
			hs:     &http.Server{Handler: srv.Handler()},
			url:    "http://" + ln.Addr().String(),
			served: make(chan error, 1),
		}
		go func() { nd.served <- nd.hs.Serve(ln) }()
		fl.nodes = append(fl.nodes, nd)
	}
	return fl, nil
}

// stop drains the node, waits for its accept loop to return and closes
// its store.
func (nd *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := nd.hs.Shutdown(ctx)
	if serr := <-nd.served; serr != http.ErrServerClosed {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, nd.srv.Close())
}

// kill makes the node unreachable at once, as a crash would: listener and
// open connections close, nothing drains. stop still has to follow.
func (nd *node) kill() error { return nd.hs.Close() }

// stop shuts every node down and removes the store directories.
func (fl *fleet) stop() error {
	var errs []error
	for _, nd := range fl.nodes {
		errs = append(errs, nd.stop())
	}
	errs = append(errs, os.RemoveAll(fl.dir))
	return errors.Join(errs...)
}

// storedBytes is the compressed bytes resident on all nodes' disks.
func (fl *fleet) storedBytes() int64 {
	var n int64
	for _, nd := range fl.nodes {
		n += nd.srv.Store().TotalBytes()
	}
	return n
}

// counterSum adds up one registry counter over nodes.
func counterSum(nodes []*node, name string) (n int64) {
	for _, nd := range nodes {
		n += nd.srv.Registry().Counter(name).Value()
	}
	return n
}

// caller is one closed-loop HTTP client: requests go through the shared
// http.Client (one keep-alive connection per caller and host) and bodies
// land in the caller's own buffer.
type caller struct {
	hc   *http.Client
	body bytes.Buffer
}

func newHTTPClient(callers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole response into c.body. The
// latency covers the request through the last body byte (and so the
// trailer).
func (c *caller) do(method, url string, payload []byte) (*http.Response, time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(res.Body)
	d := time.Since(t0)
	res.Body.Close()
	return res, d, err
}

// put ingests the container through base and returns the volume id; only
// a fresh ingest (201) counts, since every timed PUT follows a DELETE.
func (c *caller) put(base string, container []byte) (id string, d time.Duration, ok bool) {
	res, d, err := c.do(http.MethodPut, base+"/v1/volumes", container)
	if err != nil || res.StatusCode != http.StatusCreated {
		return "", d, false
	}
	id = res.Header.Get("X-Sperr-Volume-Id")
	return id, d, id != ""
}

func (c *caller) delete(base, id string) bool {
	res, _, err := c.do(http.MethodDelete, base+"/v1/volumes/"+id, nil)
	return err == nil && res.StatusCode == http.StatusNoContent
}

// region reads one box through base. want is the header (single node) or
// trailer (cluster) value a healthy read must carry; "" accepts any cache
// outcome.
func (c *caller) region(base, id string, origin, box [3]int, clustered bool, want string) (d time.Duration, rejected, ok bool) {
	url := fmt.Sprintf("%s/v1/volumes/%s/region?region=%d,%d,%d,%d,%d,%d",
		base, id, origin[0], origin[1], origin[2], box[0], box[1], box[2])
	res, d, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return d, false, false
	}
	if res.StatusCode != http.StatusOK {
		rejected = res.StatusCode == http.StatusTooManyRequests || res.StatusCode == http.StatusServiceUnavailable
		return d, rejected, false
	}
	got := res.Header.Get("X-Sperr-Cache")
	if clustered {
		got = res.Trailer.Get("X-Sperr-Status")
	}
	ok = c.body.Len() == box[0]*box[1]*box[2]*8 && (want == "" || got == want)
	return d, false, ok
}

func nproc() int { return runtime.GOMAXPROCS(0) }

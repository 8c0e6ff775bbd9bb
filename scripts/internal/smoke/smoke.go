// Package smoke is what the process-level smoke harnesses (servesmoke,
// clustersmoke, chaossmoke) share: forking sperrd peers on reserved
// localhost ports, waiting for them to answer, and the handful of HTTP
// calls every scenario makes — ingest, region read, metrics scrape. The
// scenarios and their assertions stay in each harness's main.go.
package smoke

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// Node is one forked sperrd peer.
type Node struct {
	ID       string
	Addr     string
	URL      string
	StoreDir string
	Cmd      *exec.Cmd
	Done     chan error // receives Cmd.Wait's result, once
}

// BuildDaemon compiles cmd/sperrd to bin, which the harness then forks.
func BuildDaemon(bin string) error {
	build := exec.Command("go", "build", "-o", bin, "./cmd/sperrd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build sperrd: %w", err)
	}
	return nil
}

// ReservePorts grabs n kernel-assigned localhost ports and releases
// them, returning the addresses for the daemons to re-bind: a cluster's
// roster must be known before any peer boots. The tiny reuse race is
// acceptable in a smoke harness.
func ReservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// StartNode forks one cluster peer with the flags every harness uses;
// extra carries what differs between them (replication, scrubbing).
// The caller owns the process: kill or Drain it.
func StartNode(bin, id, addr, storeDir, peers string, extra ...string) (*Node, error) {
	args := append([]string{
		"-addr", addr,
		"-store-dir", storeDir,
		"-node-id", id,
		"-peers", peers,
		"-peer-timeout", "2s",
		"-budget-mb", "64",
		"-quiet",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	n := &Node{ID: id, Addr: addr, URL: "http://" + addr, StoreDir: storeDir,
		Cmd: cmd, Done: make(chan error, 1)}
	go func() { n.Done <- cmd.Wait() }()
	return n, nil
}

// WaitHealthy polls the peer's /healthz until it answers 200, the process
// exits, or ten seconds pass.
func WaitHealthy(n *Node) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-n.Done:
			return fmt.Errorf("%s exited before healthy: %v", n.ID, err)
		default:
		}
		res, err := http.Get(n.URL + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy", n.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Drain sends SIGTERM and requires a zero exit within 15 seconds.
func Drain(n *Node) error {
	if err := n.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", n.ID, err)
	}
	select {
	case err := <-n.Done:
		if err != nil {
			return fmt.Errorf("%s exited non-zero after SIGTERM: %v", n.ID, err)
		}
		return nil
	case <-time.After(15 * time.Second):
		return fmt.Errorf("%s did not exit within 15s of SIGTERM", n.ID)
	}
}

// Ingest PUTs a container into the volume store behind base and returns
// its content address.
func Ingest(base string, container []byte) (string, error) {
	req, err := http.NewRequest("PUT", base+"/v1/volumes", bytes.NewReader(container))
	if err != nil {
		return "", err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	out, _ := io.ReadAll(res.Body)
	if res.StatusCode != 201 && res.StatusCode != 200 {
		return "", fmt.Errorf("status %d: %s", res.StatusCode, out)
	}
	id := res.Header.Get("X-Sperr-Volume-Id")
	if id == "" {
		return "", fmt.Errorf("missing X-Sperr-Volume-Id header")
	}
	return id, nil
}

// Region is a 200 answer to a region read.
type Region struct {
	Body   []byte
	Status string // X-Sperr-Status, trailer or header: "ok" or "degraded: ..."
	Node   string // X-Sperr-Node, the coordinator that answered
	Cache  string // X-Sperr-Cache, the single-node store's hit/miss outcome
}

// GetRegion fetches a region URL; any status but 200 is an error.
func GetRegion(url string) (*Region, error) {
	res, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != 200 {
		return nil, fmt.Errorf("status %d: %s", res.StatusCode, out)
	}
	status := res.Trailer.Get("X-Sperr-Status")
	if status == "" {
		status = res.Header.Get("X-Sperr-Status")
	}
	return &Region{Body: out, Status: status,
		Node: res.Header.Get("X-Sperr-Node"), Cache: res.Header.Get("X-Sperr-Cache")}, nil
}

// Scrape returns the text of base's /metrics.
func Scrape(base string) (string, error) {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	text, err := io.ReadAll(res.Body)
	return string(text), err
}

// LookupMetric extracts one series' value from scraped metrics text; a
// series that is absent or does not parse is an error, so a renamed
// counter is not mistaken for one that stayed at zero.
func LookupMetric(metrics, name string) (float64, error) {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
				return 0, fmt.Errorf("metric %s: bad value %q", name, fields[1])
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not found in /metrics", name)
}

// MetricValue is LookupMetric for counters a daemon only exports once
// they have moved: zero when absent.
func MetricValue(metrics, name string) float64 {
	v, _ := LookupMetric(metrics, name)
	return v
}

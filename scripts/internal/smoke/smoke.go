// Package smoke holds the process plumbing of the servesmoke harness:
// building and forking sperrd peers on reserved localhost ports, waiting
// for them to answer, draining them, and the HTTP calls the scenario makes
// (ingest, reads, metrics scrape). The scenario and its assertions stay in
// scripts/servesmoke; what needs no real process is tested in-process in
// internal/server.
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
	ID   string
	URL  string
	Cmd  *exec.Cmd
	Done chan error // receives Cmd.Wait's result, once
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
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// StartNode forks bin listening on addr with the given flags. The caller
// owns the process: kill or Drain it.
func StartNode(bin, id, addr string, flags ...string) (*Node, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	n := &Node{ID: id, URL: "http://" + addr, Cmd: cmd, Done: make(chan error, 1)}
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
		if _, err := Do("GET", n.URL+"/healthz", nil); err == nil {
			return nil
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

// Reply is a 2xx answer, read in full.
type Reply struct {
	Body   []byte
	Header http.Header
	Status string // X-Sperr-Status, trailer or header; "" when absent
}

// Do makes one request. A status outside 2xx, or an X-Sperr-Status other
// than "ok" (a degraded or failed stream), is an error.
func Do(method, url string, body []byte) (*Reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, res.StatusCode, out)
	}
	status := res.Trailer.Get("X-Sperr-Status")
	if status == "" {
		status = res.Header.Get("X-Sperr-Status")
	}
	if status != "" && status != "ok" {
		return nil, fmt.Errorf("%s %s: X-Sperr-Status %q", method, url, status)
	}
	return &Reply{Body: out, Header: res.Header, Status: status}, nil
}

// Ingest PUTs a container into the volume store behind base and returns
// its content address.
func Ingest(base string, container []byte) (string, error) {
	r, err := Do("PUT", base+"/v1/volumes", container)
	if err != nil {
		return "", err
	}
	id := r.Header.Get("X-Sperr-Volume-Id")
	if id == "" {
		return "", fmt.Errorf("ingest: missing X-Sperr-Volume-Id header")
	}
	return id, nil
}

// Metric scrapes base's /metrics and returns one series' value; a series
// that is absent or does not parse is an error, so a renamed counter is
// not mistaken for one that stayed at zero.
func Metric(base, name string) (float64, error) {
	r, err := Do("GET", base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(r.Body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			var v float64
			if _, err := fmt.Sscanf(f[1], "%g", &v); err != nil {
				return 0, fmt.Errorf("metric %s: bad value %q", name, f[1])
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not found in /metrics", name)
}

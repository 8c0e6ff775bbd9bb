package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCanceledReadsKeepBreakersClosed: reads whose caller has already
// given up say nothing about the peers they would have asked. Three of
// them used to open the healthy peers' breakers, so that the next normal
// read through the same coordinator filled every remote chunk and named a
// live peer unreachable.
func TestCanceledReadsKeepBreakersClosed(t *testing.T) {
	dims := [3]int{24, 17, 9}
	container := makeContainer(t, dims, [3]int{8, 8, 4}, 9)
	var (
		mu       sync.Mutex
		outcomes = make(map[string]int)
		opened   atomic.Int32
	)
	clusters, _ := testClusterHooks(t, 3, 1, Hooks{
		OnPeerRequest: func(_, outcome string) {
			mu.Lock()
			outcomes[outcome]++
			mu.Unlock()
		},
		OnBreakerOpen: func(string) { opened.Add(1) },
	})
	c := clusters[1]
	meta, _, err := c.Ingest(context.Background(), container)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < breakerThreshold; i++ {
		_, err := c.RegionTo(canceled, meta.ID, [3]int{}, dims, RegionOptions{Workers: 2}, newRowSink([3]int{}, dims))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read %d with a canceled context: err %v", i, err)
		}
	}
	mu.Lock()
	if outcomes["error"]+outcomes["timeout"] != 0 {
		t.Errorf("canceled reads labelled against the peers: %v", outcomes)
	}
	mu.Unlock()
	_, rep := gather(t, c, meta.ID, [3]int{}, dims, math.NaN())
	if len(rep.Skipped) != 0 || len(rep.Unreachable) != 0 || opened.Load() != 0 {
		t.Fatalf("after canceled reads: skipped %v, unreachable %v, %d breakers opened; want a clean read",
			rep.Skipped, rep.Unreachable, opened.Load())
	}
}

// slowPeer is a peer that answers chunk 0's one-sample frame, or, while
// slow is set, holds the request until its caller gives up; c is a
// coordinator whose only remote peer it is.
type slowPeer struct {
	slow   atomic.Bool
	calls  atomic.Int32
	opened atomic.Int32
	c      *Cluster

	mu       sync.Mutex
	outcomes []string
}

func newSlowPeer(t *testing.T) *slowPeer {
	p := &slowPeer{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.calls.Add(1)
		if p.slow.Load() {
			<-r.Context().Done()
			return
		}
		w.Write(frame(0, 1))
	}))
	t.Cleanup(srv.Close)
	c, err := New(Config{
		Self:    "node-a",
		Peers:   map[string]string{"node-a": "http://self.invalid", "node-b": srv.URL},
		Timeout: 5 * time.Second,
		Hooks: Hooks{
			OnPeerRequest: func(_, outcome string) {
				p.mu.Lock()
				p.outcomes = append(p.outcomes, outcome)
				p.mu.Unlock()
			},
			OnBreakerOpen: func(string) { p.opened.Add(1) },
		},
	}, newFakePeer(t).st)
	if err != nil {
		t.Fatal(err)
	}
	p.c = c
	return p
}

func (p *slowPeer) fetch(ctx context.Context) bool {
	sink := newChunkSink(emitSink(func(ChunkPiece) error { return nil }))
	return p.c.fetchGuarded(ctx, "node-b", "vol", []Hit{{Index: 0, Dims: [3]int{1, 1, 1}}}, sink)
}

func (p *slowPeer) outcomeList() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprint(p.outcomes)
}

// TestCallerCancelLeavesBreakerClosed: a fetch that ended because its
// caller's context did is the caller's doing. It counts neither for nor
// against the peer, is labelled "canceled", and gives back a half-open
// probe it was holding.
func TestCallerCancelLeavesBreakerClosed(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		p := newSlowPeer(t)
		p.slow.Store(true)
		for i := 0; i < breakerThreshold; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			if p.fetch(ctx) {
				t.Fatal("a fetch the peer never answered succeeded")
			}
			cancel()
		}
		p.slow.Store(false)
		if !p.fetch(context.Background()) || p.calls.Load() != breakerThreshold+1 {
			t.Fatalf("fetch after %d caller deadlines: %d calls reached the peer, outcomes %s",
				breakerThreshold, p.calls.Load(), p.outcomeList())
		}
		if got := p.outcomeList(); got != "[canceled canceled canceled ok]" || p.opened.Load() != 0 {
			t.Fatalf("outcomes %s, %d breaker opens; want three canceled, then ok, and none", got, p.opened.Load())
		}
	})
	t.Run("half-open probe", func(t *testing.T) {
		p := newSlowPeer(t)
		br := p.c.breakerFor("node-b")
		br.fails = breakerThreshold
		br.openUntil = time.Now().Add(-time.Millisecond) // the cooldown has lapsed
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if p.fetch(canceled) {
			t.Fatal("a canceled probe succeeded")
		}
		if !p.fetch(context.Background()) {
			t.Fatalf("the probe after a canceled one was refused: outcomes %s", p.outcomeList())
		}
		if br.fails != 0 {
			t.Fatalf("breaker still counts %d failures after a successful probe", br.fails)
		}
	})
}

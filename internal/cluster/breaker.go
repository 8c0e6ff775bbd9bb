package cluster

// Per-peer circuit breaker. A peer that has failed several consecutive
// RPCs is overwhelmingly likely to fail the next one too — usually
// because its process is gone and every attempt burns the full
// per-attempt timeout before the coordinator moves on. The breaker
// converts that repeated timeout into an immediate refusal: after
// breakerThreshold consecutive failures the peer is "open" for a
// cooldown, and fetches short-circuit straight to the chunk's next
// replica instead of dialing a corpse. One probe is allowed through
// when the cooldown lapses (half-open); a success closes the breaker.

import (
	"sync"
	"time"
)

const (
	// breakerThreshold is how many consecutive failures open the breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker refuses attempts before
	// letting one probe through.
	breakerCooldown = 2 * time.Second
)

// breaker tracks one peer's consecutive-failure state. The zero value is
// a closed (healthy) breaker.
type breaker struct {
	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool
}

// allow reports whether an attempt against this peer may proceed now.
// While open, exactly one probe is admitted per cooldown lapse so a
// recovered peer closes the breaker without a thundering herd.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < breakerThreshold {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// success records a completed RPC, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// release returns an attempt that ended on the caller's side (its context
// was canceled or timed out) without counting it either way, and gives
// back a half-open probe so the next call can make one.
func (b *breaker) release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// failure records a failed RPC and reports whether this failure opened
// (or re-armed) the breaker.
func (b *breaker) failure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.fails >= breakerThreshold {
		b.openUntil = now.Add(breakerCooldown)
		return b.fails == breakerThreshold
	}
	return false
}

// breakerFor returns (creating on first use) the breaker for a peer.
func (c *Cluster) breakerFor(peer string) *breaker {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	b, ok := c.breakers[peer]
	if !ok {
		b = &breaker{}
		c.breakers[peer] = b
	}
	return b
}

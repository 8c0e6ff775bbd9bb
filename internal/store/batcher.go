package store

import (
	"sync"
	"time"
)

// manifestOp is one pending manifest mutation: exactly one of put or del
// is set. done receives the flush outcome (buffered, sent exactly once).
type manifestOp struct {
	put  *Meta
	del  string
	done chan error
}

// batcher is the manifest's batched flush loop: submitters enqueue ops
// and block until the batch containing their op has been applied and the
// manifest durably rewritten. A flush triggers when maxBatch ops are
// pending or flushEvery after the first op of a batch — so a burst of
// concurrent ingests pays one manifest rewrite, not one per volume,
// while a lone ingest still lands within one flush interval. This is the
// blocking group-commit shape of write-ahead batchers in audit-log
// systems: amortize the fsync, never acknowledge before it.
type batcher struct {
	ops   chan manifestOp
	quit  chan struct{}
	done  chan struct{}
	apply func([]manifestOp) error

	mu     sync.Mutex
	closed bool
}

// The batcher's cadence: a flush is at most maxBatch ops, and a lone op
// waits at most flushEvery for company.
const (
	maxBatch   = 64
	flushEvery = 5 * time.Millisecond
)

func newBatcher(apply func([]manifestOp) error) *batcher {
	b := &batcher{
		ops:   make(chan manifestOp, 4*maxBatch),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		apply: apply,
	}
	go b.loop()
	return b
}

// submit enqueues one op and blocks until its batch is flushed. The
// closed check and the enqueue happen under one lock, so every accepted
// op is visible to the loop's shutdown drain.
func (b *batcher) submit(op manifestOp) error {
	op.done = make(chan error, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.ops <- op
	b.mu.Unlock()
	return <-op.done
}

// close flushes every accepted op and stops the loop. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	var batch []manifestOp
	timer := time.NewTimer(flushEvery)
	if !timer.Stop() {
		<-timer.C
	}
	flush := func() {
		if len(batch) == 0 {
			return
		}
		err := b.apply(batch)
		for _, op := range batch {
			op.done <- err
		}
		batch = nil
	}
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	for {
		select {
		case op := <-b.ops:
			if len(batch) == 0 {
				stopTimer()
				timer.Reset(flushEvery)
			}
			batch = append(batch, op)
			if len(batch) >= maxBatch {
				stopTimer()
				flush()
			}
		case <-timer.C:
			flush()
		case <-b.quit:
			stopTimer()
			for {
				select {
				case op := <-b.ops:
					batch = append(batch, op)
					if len(batch) >= maxBatch {
						flush()
					}
				default:
					flush()
					return
				}
			}
		}
	}
}

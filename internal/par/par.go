// Package par provides the deterministic work-splitting primitive of the
// intra-chunk parallel paths: an index range is partitioned into
// contiguous spans whose boundaries depend only on (total, threads), and
// each span runs on its own goroutine over disjoint data. Results are
// therefore independent of scheduling — byte-identical output at every
// thread count — which the pipeline's determinism tests rely on.
package par

import "sync"

// Spans partitions [0, total) into up to threads contiguous spans and
// runs fn once per span; span 0 runs on the calling goroutine, the rest
// on fresh goroutines. Spans returns when every call has finished. Each
// worker receives a distinct span, so writes to span-indexed data need no
// locking.
func Spans(total, threads int, fn func(worker, lo, hi int)) {
	if threads > total {
		threads = total
	}
	if threads <= 1 {
		if total > 0 {
			fn(0, 0, total)
		}
		return
	}
	span := (total + threads - 1) / threads
	var wg sync.WaitGroup
	worker := 0
	for lo := span; lo < total; lo += span {
		worker++
		hi := lo + span
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(worker, lo, hi)
	}
	fn(0, 0, span)
	wg.Wait()
}

// Workers clamps a requested thread count for a task of elems elements:
// below minElems the spawn-and-barrier overhead outweighs the work and
// the task stays serial.
func Workers(threads, elems, minElems int) int {
	if threads <= 1 || elems < minElems {
		return 1
	}
	return threads
}

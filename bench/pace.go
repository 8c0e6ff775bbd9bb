package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a small shared VM whose memory system
// is contended by neighbours in spells of seconds to minutes: over one
// four-minute spell a codec encode took 1.36x and a decode 1.35x their
// usual time, with nothing in this process different, and a spell can
// cover one whole set of runs and none of the next. No statistic taken
// inside a run removes that. So timed rounds are bracketed by samples of
// the host's pace: a fixed mix of three kernels that use only the standard
// library, so no change to this repository can move them, run on every
// core. In the same spell the mix took 1.34x its usual time (stream 1.42x,
// table 1.43x, copy 1.18x; a pure integer loop only 1.06x, which is why
// there is none in it). Work that is bound by CPU and memory is scaled by
// the factor the samples taken through it show: rates are multiplied by
// it, latencies and set-up time are divided by it. Ingest through sperrd is
// bound by fsync, not by the memory system, and is left as measured.
//
// Per-layer metrics are not corrected; bench.host_pace reports the factor.

// referencePace is how long one sample takes on the reference host (the
// 2-core Xeon @ 2.10GHz VM the reference values in README.md come from)
// outside a spell. It fixes the unit: a corrected MB/s is a MB/s on that
// host at that pace.
const referencePace = 7500 * time.Microsecond

// pacer owns the buffers of the pace kernels, one set per core.
type pacer struct {
	cores []paceBufs
}

type paceBufs struct {
	a, b     []float64 // 4 MB each: streamed, larger than a core's L2
	table    []uint32  // 1 MB: branchy read-modify-write that stays in L2
	src, dst []byte    // one region read's worth of bytes, copied
}

func newPacer() *pacer {
	p := &pacer{cores: make([]paceBufs, nproc())}
	for i := range p.cores {
		c := &p.cores[i]
		c.a, c.b = make([]float64, 1<<19), make([]float64, 1<<19)
		c.table = make([]uint32, 1<<18)
		for j := range c.table {
			c.table[j] = uint32(j) * 2654435761
		}
		c.src, c.dst = make([]byte, 48*48*48*8), make([]byte, 48*48*48*8)
	}
	return p
}

// sample reports the host's pace now: the fastest of three runs of the
// mix, each on every core at the same time, after a collection so that no
// mark phase left over from the workload (the serving reads allocate a
// gigabyte a second) runs beside them. The minimum ignores a passing
// disturbance and still follows a host that stays slow.
func (p *pacer) sample() time.Duration {
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range p.cores {
			wg.Add(1)
			go func(c *paceBufs) {
				defer wg.Done()
				c.run()
			}(&p.cores[i])
		}
		wg.Wait()
		best = min(best, time.Since(t0))
	}
	return best
}

// run is the mix, three kernels of about equal time: a stream over arrays
// that do not fit in L2, a branchy read-modify-write over a table that
// does, and bulk copies of one region read's size — where the wavelet
// passes, the bit-plane coders and the cached read path spend their time.
func (c *paceBufs) run() {
	for pass := 0; pass < 4; pass++ {
		for i := range c.a {
			c.a[i] = c.a[i]*0.999 + c.b[i]*0.001
		}
	}
	var acc uint32
	for pass := 0; pass < 12; pass++ {
		for i, v := range c.table {
			if v&1 != 0 {
				acc += uint32(i) ^ v
			} else {
				acc ^= v >> 3
			}
			c.table[i] = v*1664525 + 1013904223
		}
	}
	c.table[0] += acc // keeps the loop above from being dropped
	for pass := 0; pass < 25; pass++ {
		copy(c.dst, c.src)
		copy(c.src, c.dst)
	}
}

// slowdown turns the pace samples taken through a stretch of work into the
// factor the host was slower than the reference pace by (above 1: slower).
// One factor per stretch, the median of its samples: the spells worth
// correcting last longer than a run, and a single sample is itself hit by
// the short ones.
func slowdown(samples []time.Duration) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = float64(s)
	}
	return median(v) / float64(referencePace)
}

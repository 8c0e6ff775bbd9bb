package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// sizing scales a run. The defaults are the gated configuration; the test
// shrinks every field so all five workloads finish in a few seconds.
type sizing struct {
	field     int           // field edge length
	phase     time.Duration // budget of one timed phase (write or read)
	minRounds int           // rounds a phase runs even when over budget
	setups    int           // times the whole set-up is done; setup_s is their median
	reps      int           // repetitions behind each traced per-layer time
	lossReads int           // reads issued after a peer is killed
}

// gatedRounds is both the floor on rounds and the divisor that turns a
// phase budget into a per-round target: a phase that keeps pace runs one
// round more than the floor.
const gatedRounds = 9

func gatedSizing(seconds float64) sizing {
	return sizing{
		field:     128,
		phase:     time.Duration(seconds / 2 * float64(time.Second)),
		minRounds: gatedRounds,
		setups:    3,
		reps:      5,
		lossReads: 20,
	}
}

// roundTarget is how long one round should take.
func (s sizing) roundTarget() time.Duration {
	return s.phase / time.Duration(s.minRounds+1)
}

// An op is one timed call: client says which closed-loop caller issues it
// and i which input of the seeded sequence it uses. It returns the call's
// latency, measured inside the op so that output checks stay off the clock.
type op func(client, i int) time.Duration

// round runs ops 0..n-1 split over the clients (client c takes every op
// with i % clients == c, back to back) and returns the latency of each and
// the wall that rates are taken over: the busy time of the slowest client,
// so a stall on one connection counts against the whole round while output
// checks and untimed steps (a DELETE before each PUT) do not.
func round(n, clients int, do op) (wall time.Duration, lat []time.Duration) {
	lat = make([]time.Duration, n)
	busy := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				lat[i] = do(c, i)
				busy[c] += lat[i]
			}
		}(c)
	}
	wg.Wait()
	for _, b := range busy {
		wall = max(wall, b)
	}
	return wall, lat
}

// warmUp is the untimed first round. It runs small batches of ops until a
// third of a round target has passed, which fills caches, pools and
// connections, and returns the op count that should fill one timed round at
// the pace of its fastest batch (the first ones run cold; the pace is real
// time, untimed steps included, because that is what a budget is spent
// in), never fewer than three so that nine rounds hold at least 24 ops.
func warmUp(s sizing, clients int, do op) int {
	batch := max(2, clients)
	perOp := math.Inf(1)
	for spent := time.Duration(0); spent < s.roundTarget()/3; {
		t0 := time.Now()
		round(batch, clients, do)
		elapsed := time.Since(t0)
		spent += elapsed
		perOp = min(perOp, float64(elapsed)/float64(batch))
	}
	return max(3, int(math.Round(float64(s.roundTarget())/perOp)))
}

// phaseResult is what the rounds of one kind (write or read) measured,
// before any host-pace correction.
type phaseResult struct {
	rounds int
	n      int     // ops per round
	mbPerS float64 // median over rounds of MB moved / round wall
	p50ms  float64 // median over rounds of the round's median latency
	p95ms  float64 // over every op of every round

	rates, p50s []float64
	lat         []time.Duration
}

// add folds one round in.
func (res *phaseResult) add(mbPerOp float64, wall time.Duration, lat []time.Duration) {
	res.rounds++
	res.lat = append(res.lat, lat...)
	res.rates = append(res.rates, float64(len(lat))*mbPerOp/wall.Seconds())
	res.p50s = append(res.p50s, percentile(lat, 50))
}

// timedRounds is the measured part of a gated run: write rounds and read
// rounds taking turns until both phase budgets are spent, and at least
// minRounds of each, with a sample of the host's pace (see pace.go) before
// every round. Every round of a kind replays the same inputs and starts
// from a collected heap (the pace sample collects), so rounds differ only
// by noise, and the reported values are medians over rounds: on a shared
// two-core host single rounds swing by a quarter while the median of ten
// stays within a few percent. The kinds alternate rather than run as two
// blocks because the host's short slow spells last seconds: one that would
// cover most of a 9-second block covers a minority of either kind's rounds
// when they are spread over the whole run, and a median ignores a minority.
func timedRounds(s sizing, p *pacer, r *rig) (wr, rd phaseResult, paces []time.Duration) {
	wr.n, rd.n = r.writeN, r.readN
	start := time.Now()
	for wr.rounds < s.minRounds || time.Since(start) < 2*s.phase-s.roundTarget() {
		paces = append(paces, p.sample())
		wall, lat := round(wr.n, 1, r.write)
		wr.add(r.in.rawMB(), wall, lat)
		if r.prime != nil {
			r.prime()
		}
		paces = append(paces, p.sample())
		wall, lat = round(rd.n, r.readClients, r.read)
		rd.add(r.readMB, wall, lat)
	}
	paces = append(paces, p.sample())
	for _, res := range []*phaseResult{&wr, &rd} {
		res.mbPerS, res.p50ms, res.p95ms = median(res.rates), median(res.p50s), percentile(res.lat, 95)
	}
	return wr, rd, paces
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of lat, in milliseconds.
func percentile(lat []time.Duration, p float64) float64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return ms(s[max(rank, 1)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

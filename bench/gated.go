package main

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"sperr"
)

// runOpts is what a run is given besides its workload.
type runOpts struct {
	sz   sizing
	seed int64
	tmp  string // where store directories are made
	out  string // where traces are written

	// tamper, when set, damages the checker's references right after
	// set-up builds them. Only the test sets it, to prove that the checks
	// have teeth.
	tamper func(*checker)
}

// outcome is one finished run.
type outcome struct {
	workload  string
	metrics   *results
	attempted int64
	failed    int64
	firstFail string   // what the first failed operation was, if any failed
	notes     []string // phase shapes and other lines worth printing
}

// rig is a workload set up and warmed: its inputs, its verified
// references, the two timed ops and the op counts the warm-up rounds
// settled on.
type rig struct {
	in        *inputs
	ck        *checker
	container []byte

	write, read   op
	writeOnCPU    bool // the write op is bound by CPU and memory, not by fsync
	readClients   int
	readMB        float64 // raw MB one read delivers
	writeN, readN int     // ops per timed round
	prime         func()  // refills what a write phase emptied; nil if nothing to refill
	stored        func() int64
	after         func() // untimed phase that follows the gated ones; may be nil
	close         func() error
}

// base builds what every workload starts from: the seeded inputs, the
// container at the workload's tolerance and tiling, and the oracle decode,
// itself checked against the point-wise bound.
func base(w workload, o runOpts) (*rig, *sperr.Options, error) {
	in := makeInputs(o.sz.field, w.tolFrac, o.seed)
	cd := o.sz.field / w.chunkDiv
	opts := &sperr.Options{ChunkDims: [3]int{cd, cd, cd}, Workers: nproc()}
	container, _, err := sperr.CompressPWE(in.data, in.dims, in.tol, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("encode container: %w", err)
	}
	oracle, _, err := sperr.Decompress(container)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle decode: %w", err)
	}
	ck := &checker{in: in, tol: in.tol, oracle: oracle}
	if o.tamper != nil {
		o.tamper(ck)
	}
	ck.op("oracle decode within the bound", ck.withinBound(oracle))
	return &rig{in: in, ck: ck, container: container}, opts, nil
}

// setUp is everything before the first timed op: field synthesis,
// container encode, oracle decode, and for serving workloads node boot and
// first ingest; then one untimed warm-up round per phase, in which every
// read is compared with the oracle byte for byte.
func setUp(w workload, o runOpts) (*rig, error) {
	r, opts, err := base(w, o)
	if err != nil {
		return nil, err
	}
	var checkAll atomic.Bool
	checkAll.Store(true)
	if w.serving {
		err = r.serve(w, o, &checkAll)
	} else {
		r.library(opts)
	}
	if err != nil {
		return nil, err
	}
	r.writeN = warmUp(o.sz, 1, r.write)
	if r.prime != nil {
		r.prime()
	}
	r.readN = warmUp(o.sz, r.readClients, r.read)
	checkAll.Store(false)
	return r, nil
}

// library wires the codec workloads: one caller, nproc workers.
func (r *rig) library(opts *sperr.Options) {
	in, ck, container := r.in, r.ck, r.container
	sum := sha256.Sum256(container)
	r.write = func(_, _ int) time.Duration {
		t0 := time.Now()
		stream, _, err := sperr.CompressPWE(in.data, in.dims, in.tol, opts)
		d := time.Since(t0)
		ck.op("encode repeats the stream", err == nil && sha256.Sum256(stream) == sum)
		return d
	}
	r.read = func(_, _ int) time.Duration {
		t0 := time.Now()
		recon, _, err := sperr.DecompressWorkers(container, nproc())
		d := time.Since(t0)
		ck.op("decode within the bound", err == nil && ck.withinBound(recon))
		return d
	}
	r.writeOnCPU = true
	r.readClients = 1
	r.readMB = in.rawMB()
	r.stored = func() int64 { return int64(len(container)) }
	r.close = func() error { return nil }
}

// serve wires the serving workloads: nproc closed-loop readers on
// keep-alive connections, one ingest client, reads round-robin over every
// coordinator.
func (r *rig) serve(w workload, o runOpts, checkAll *atomic.Bool) error {
	in, ck, container := r.in, r.ck, r.container
	fl, err := startFleet(o.tmp, max(1, w.peers), in.cacheSamples(w.cold))
	if err != nil {
		return err
	}
	clustered := w.peers > 1
	want := "hit"
	switch {
	case clustered:
		want = "ok"
	case w.cold:
		want = "" // a cold read may be a miss or a partial hit
	}
	hc := newHTTPClient(nproc())
	callers := make([]*caller, nproc())
	for i := range callers {
		callers[i] = &caller{hc: hc}
	}
	front := fl.nodes[0].url
	id, _, ok := callers[0].put(front, container)
	ck.op("first ingest", ok)
	if !ok {
		fl.stop()
		return fmt.Errorf("first ingest through %s failed", front)
	}

	r.write = func(_, _ int) time.Duration {
		c := callers[0]
		deleted := c.delete(front, id)
		_, d, ok := c.put(front, container)
		ck.op("DELETE then PUT", deleted && ok)
		return d
	}
	r.read = func(c, i int) time.Duration {
		origin := in.origins[i%len(in.origins)]
		d, _, ok := callers[c].region(fl.nodes[i%len(fl.nodes)].url, id, origin, in.box, clustered, want)
		if ok && (i%16 == 0 || checkAll.Load()) {
			ok = ck.regionMatches(callers[c].body.Bytes(), origin, in.box)
		}
		ck.op("region read", ok)
		return d
	}
	if !w.cold {
		// One full-volume read decodes every chunk on the peer that serves
		// it, so the reads that follow are cache hits from the first on.
		r.prime = func() {
			_, _, ok := callers[0].region(front, id, [3]int{}, in.dims, clustered, "")
			ck.op("full-volume read", ok && ck.regionMatches(callers[0].body.Bytes(), [3]int{}, in.dims))
		}
	}
	if clustered {
		r.after = func() { peerLoss(fl, callers[0], id, ck, o.sz.lossReads) }
	}
	r.readClients = len(callers)
	r.readMB = in.boxMB()
	r.stored = fl.storedBytes
	r.close = func() error {
		hc.CloseIdleConnections()
		return fl.stop()
	}
	return nil
}

// peerLoss kills the peer that is primary owner of the most chunks and
// reads through the survivors. Every read must still be 200, carry the ok
// trailer and match the oracle, and at least one chunk must have been
// served by a replica other than its primary owner. It returns the
// failover and breaker-open counts the phase added, summed over the
// surviving coordinators.
func peerLoss(fl *fleet, c *caller, id string, ck *checker, reads int) (failedOver, breakerOpens int64) {
	meta, ok := fl.nodes[0].srv.Store().Describe(id)
	ck.op("peer loss: volume known", ok)
	if !ok {
		return 0, 0
	}
	primaries := map[string]int{}
	for ci := 0; ci < meta.NumChunks; ci++ {
		primaries[fl.nodes[0].srv.Cluster().Owner(id, ci)]++
	}
	victim := fl.nodes[0]
	var survivors []*node
	for _, nd := range fl.nodes[1:] {
		if primaries[nd.id] > primaries[victim.id] {
			victim = nd
		}
	}
	for _, nd := range fl.nodes {
		if nd != victim {
			survivors = append(survivors, nd)
		}
	}
	const failover, breaker = "sperrd_replica_failover_chunks_total", "sperrd_cluster_breaker_opens_total"
	f0, b0 := counterSum(survivors, failover), counterSum(survivors, breaker)
	ck.op("peer loss: kill", victim.kill() == nil)
	in := ck.in
	for i := 0; i < reads; i++ {
		origin := in.origins[len(in.origins)-1-i]
		_, _, ok := c.region(survivors[i%len(survivors)].url, id, origin, in.box, true, "ok")
		ck.op("peer loss: region read", ok && ck.regionMatches(c.body.Bytes(), origin, in.box))
	}
	failedOver, breakerOpens = counterSum(survivors, failover)-f0, counterSum(survivors, breaker)-b0
	ck.op("peer loss: some chunk failed over", failedOver > 0)
	return failedOver, breakerOpens
}

// runGated measures a workload's end-to-end metrics, tracing off.
func runGated(w workload, o runOpts) (*outcome, error) {
	runtime.GC()
	pace := newPacer()
	var r *rig
	var setups []float64
	var setupPaces []time.Duration
	var attempted, failed int64 // of the set-ups already torn down
	var firstFail string
	for i := 0; i < o.sz.setups; i++ {
		if r != nil {
			attempted += r.ck.attempted.Load()
			failed += r.ck.failed.Load()
			firstFail = cmp.Or(firstFail, r.ck.firstFailure())
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		setupPaces = append(setupPaces, pace.sample())
		t0 := time.Now()
		var err error
		if r, err = setUp(w, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupPaces = append(setupPaces, pace.sample())
	}
	wr, rd, paces := timedRounds(o.sz, pace, r)
	stored := r.stored()
	if r.after != nil {
		r.after()
	}
	if err := r.close(); err != nil {
		return nil, err
	}

	// The host-pace correction (pace.go): work bound by CPU and memory is
	// reported at the reference pace, fsync-bound ingest as measured.
	slow, slowSetup, slowWrite := slowdown(paces), slowdown(setupPaces), 1.0
	if r.writeOnCPU {
		slowWrite = slow
	}
	res := newResults(endToEnd)
	res.set("setup_s", median(setups)/slowSetup)
	res.set("write_mb_s", wr.mbPerS*slowWrite)
	res.set("read_mb_s", rd.mbPerS*slow)
	res.set("read_p50_ms", rd.p50ms/slow)
	res.set("bits_per_point", float64(stored)*8/float64(r.in.samples()))
	return &outcome{
		workload:  w.Name,
		metrics:   res,
		attempted: attempted + r.ck.attempted.Load(),
		failed:    failed + r.ck.failed.Load(),
		firstFail: cmp.Or(firstFail, r.ck.firstFailure()),
		notes: []string{
			fmt.Sprintf("write rounds: %d x %d ops, 1 caller; as measured %.6g MB/s, corrected by %.3f",
				wr.rounds, wr.n, wr.mbPerS, slowWrite),
			fmt.Sprintf("read rounds: %d x %d ops, %d callers; as measured %.6g MB/s, p50 %.6g ms, p95 %.6g ms over %d reads, corrected by %.3f",
				rd.rounds, rd.n, r.readClients, rd.mbPerS, rd.p50ms, rd.p95ms, len(rd.lat), slow),
			fmt.Sprintf("set-up samples as measured (s): %.3f, corrected by %.3f", setups, slowSetup),
			fmt.Sprintf("raw write_mb_s=%.6g read_mb_s=%.6g read_p50_ms=%.6g setup_s=%.6g pace=%.4f pace_setup=%.4f",
				wr.mbPerS, rd.mbPerS, rd.p50ms, median(setups), slow, slowSetup),
		},
	}, nil
}

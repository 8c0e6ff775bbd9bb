package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"sperr"
	"sperr/internal/chunk"
	"sperr/internal/cluster"
	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/lossless"
	"sperr/internal/outlier"
	"sperr/internal/speck"
	"sperr/internal/store"
	"sperr/internal/wavelet"
)

// A span is one call into a layer's public function, timed from outside:
// the layers carry no tracing of their own yet, so the harness wraps the
// calls. Parent is the index of the span that caused this one (-1 for a
// root); the spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. All traced calls are
// issued from one goroutine, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
}

// nextOp returns a fresh operation id.
func (r *recorder) nextOp() int { r.ops++; return r.ops }

func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// time records f as a span and returns how long it took.
func (r *recorder) time(name string, parent, op int, f func()) time.Duration {
	id := r.begin(name, parent, op)
	f()
	return r.end(id)
}

// tally sums span durations by name within each repetition; a per-layer
// time is the median over repetitions of those sums, so the stage times of
// one repetition add up before anything is averaged.
type tally map[string][]time.Duration

func (t tally) add(name string, rep int, d time.Duration) {
	for len(t[name]) <= rep {
		t[name] = append(t[name], 0)
	}
	t[name][rep] += d
}

func (t tally) ms(name string) float64 {
	v := make([]float64, len(t[name]))
	for i, d := range t[name] {
		v[i] = ms(d)
	}
	return median(v)
}

// chunkHeaderBytes is the fixed header that leads every chunk payload
// (internal/codec keeps the constant private); the SPECK stream and then
// the outlier stream follow it.
const chunkHeaderBytes = 40

// timed runs f as a root span of its own operation and adds its duration
// to repetition rep's sum for name.
func (l *ledger) timed(name string, rep int, f func()) {
	l.t.add(name, rep, l.rec.time(name, -1, l.rec.nextOp(), f))
}

// tracedChunk is one chunk of the production container as the ledger
// needs it: the input slab, the coded stream, its header and its payload
// (the stream with the lossless layer removed).
type tracedChunk struct {
	dims    grid.Dims
	slab    []float64
	stream  []byte
	meta    *codec.StreamMeta
	payload []byte
}

// ledger is a traced run in progress. The codec and chunk sections run on
// the workload's own container; the store, server and cluster sections run
// on srv, the serving workloads' container, so that under a codec workload
// they still see the tiling (64 chunks) that sharding and the cache are
// sized for, and report the same quantity in every workload's traced run.
type ledger struct {
	w   workload
	o   runOpts
	rig *rig
	srv *rig
	rec *recorder
	t   tally
	res *results

	chunkDims grid.Dims
	chunks    []tracedChunk
}

// runTraced produces a workload's per-layer metrics. It walks the whole
// ledger at the workload's tolerance and tiling: the codec pipeline
// re-enacted stage by stage, then the opaque codec, chunk, store, server
// and cluster calls, each wrapped in a span from outside.
func runTraced(w workload, o runOpts) (*outcome, error) {
	runtime.GC()
	r, _, err := base(w, o)
	if err != nil {
		return nil, err
	}
	srv := r
	if !w.serving {
		hot, _ := workloadByName("serve_hot")
		if srv, _, err = base(hot, o); err != nil {
			return nil, err
		}
	}
	cd := o.sz.field / w.chunkDiv
	l := &ledger{
		w: w, o: o, rig: r, srv: srv,
		rec:       &recorder{t0: time.Now()},
		t:         tally{},
		res:       newResults(perLayer),
		chunkDims: grid.D3(cd, cd, cd),
	}
	pace := newPacer()
	paces := []time.Duration{pace.sample()}
	for _, section := range []func() error{l.openChunks, l.codecLayers, l.adaptive, l.storeLayer, l.serverLayer, l.clusterLayer} {
		if err := section(); err != nil {
			return nil, err
		}
		paces = append(paces, pace.sample())
	}
	l.res.set("bench.host_pace", slowdown(paces))
	if err := l.res.complete(); err != nil {
		return nil, err
	}
	if err := l.writeTrace(); err != nil {
		return nil, err
	}
	attempted, failed, firstFail := r.ck.attempted.Load(), r.ck.failed.Load(), r.ck.firstFailure()
	if srv != r {
		attempted, failed = attempted+srv.ck.attempted.Load(), failed+srv.ck.failed.Load()
		firstFail = cmp.Or(firstFail, srv.ck.firstFailure())
	}
	return &outcome{
		workload:  w.Name,
		metrics:   l.res,
		attempted: attempted,
		failed:    failed,
		firstFail: firstFail,
		notes: []string{fmt.Sprintf("traced run: %d spans, %d repetitions per layer time, written to %s",
			len(l.rec.spans), o.sz.reps, l.tracePath())},
	}, nil
}

func (l *ledger) tracePath() string { return filepath.Join(l.o.out, l.w.Name+".trace.json") }

func (l *ledger) writeTrace() error {
	raw, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{l.w.Name, l.o.seed, l.res.values, l.rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(l.tracePath(), raw, 0o644)
}

// openChunks takes the production container apart into per-chunk inputs.
func (l *ledger) openChunks() error {
	in, container := l.rig.in, l.rig.container
	info, err := chunk.Describe(container)
	if err != nil {
		return err
	}
	vol := grid.FromSlice(grid.D3(in.dims[0], in.dims[1], in.dims[2]), in.data)
	for i, ci := range info.Chunks {
		// Frame layout: payload length u32, payload, crc32c u32.
		stream := container[ci.Offset+4:][:ci.CompressedBytes]
		meta, err := codec.DescribeChunk(stream)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		payload, err := lossless.Decompress(stream)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		l.chunks = append(l.chunks, tracedChunk{
			dims:    ci.Dims,
			slab:    vol.CutoutInto(nil, ci.Origin[0], ci.Origin[1], ci.Origin[2], ci.Dims),
			stream:  stream,
			meta:    meta,
			payload: payload,
		})
	}
	return nil
}

// stageScratch holds the buffers the re-enacted pipeline reuses from chunk
// to chunk, as codec.Scratch does for the real one.
type stageScratch struct {
	coeffs  []float64
	plan    *wavelet.Plan
	wav     wavelet.Scratch
	spk     speck.Scratch
	outl    outlier.Scratch
	outs    []outlier.Outlier
	payload []byte
}

func (s *stageScratch) prepare(d grid.Dims) []float64 {
	if s.plan == nil || s.plan.Dims() != d {
		s.plan = wavelet.NewPlan(d)
	}
	if cap(s.coeffs) < d.Len() {
		s.coeffs = make([]float64, d.Len())
	}
	return s.coeffs[:d.Len()]
}

// codecLayers runs the codec and chunk sections repetition by repetition,
// so that the times that must reconcile (stages against codec, codec
// against chunk) come from the same stretch of wall clock.
func (l *ledger) codecLayers() error {
	cs := codecStages{l: l, prod: codec.NewScratch()}
	for rep := 0; rep < l.o.sz.reps; rep++ {
		if err := cs.run(rep); err != nil {
			return err
		}
		l.chunkLayer(rep)
	}
	cs.report()
	l.reportChunkLayer()
	return nil
}

// codecStages re-enacts the chunk pipeline from outside, one public call
// per stage at one thread, next to the opaque EncodeChunkScratch and
// DecodeChunkScratch on the same chunks. The re-enactment has to prove it
// did production's work: its SPECK and outlier streams must be the ones in
// the production payload, bit counts and bytes, and its reconstruction the
// production decode, or the run fails.
type codecStages struct {
	l    *ledger
	st   stageScratch
	prod *codec.Scratch // reused from chunk to chunk, as a pipeline worker does

	speckBits, outlierBits, outliers, bytesIn, bytesOut uint64
}

func (cs *codecStages) run(rep int) error {
	l := cs.l
	params := codec.Params{Mode: codec.ModePWE, Tol: l.rig.in.tol}
	for i := range l.chunks {
		c := &l.chunks[i]
		sb, ob, no, err := l.encodeStages(&cs.st, rep, c)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		if rep == 0 {
			cs.speckBits, cs.outlierBits, cs.outliers = cs.speckBits+sb, cs.outlierBits+ob, cs.outliers+uint64(no)
			cs.bytesIn, cs.bytesOut = cs.bytesIn+uint64(len(c.payload)), cs.bytesOut+uint64(len(c.stream))
		}
	}
	for i := range l.chunks {
		c := &l.chunks[i]
		var stream []byte
		var err error
		l.timed("codec.encode", rep, func() {
			stream, _, err = codec.EncodeChunkScratch(c.slab, c.dims, params, cs.prod)
		})
		if err != nil || !bytes.Equal(stream, c.stream) {
			return fmt.Errorf("chunk %d: EncodeChunkScratch does not reproduce the container's stream (%v)", i, err)
		}
	}
	for i := range l.chunks {
		c := &l.chunks[i]
		got, err := l.decodeStages(&cs.st, rep, c)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		if rep > 0 {
			continue // proven once; later repetitions only time
		}
		if want, err := codec.DecodeChunk(c.stream, c.dims); err != nil || !sameBits(got, want) {
			return fmt.Errorf("chunk %d: re-enacted decode differs from DecodeChunk (%v)", i, err)
		}
	}
	for i := range l.chunks {
		c := &l.chunks[i]
		var err error
		l.timed("codec.decode", rep, func() {
			_, err = codec.DecodeChunkScratch(c.stream, c.dims, cs.prod)
		})
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return nil
}

func (cs *codecStages) report() {
	t, res := cs.l.t, cs.l.res
	res.set("wavelet.forward_ms", t.ms("encode/wavelet.forward"))
	res.set("wavelet.inverse_ms", t.ms("decode/wavelet.inverse"))
	res.set("speck.encode_ms", t.ms("encode/speck.encode"))
	res.set("speck.replay_ms", t.ms("encode/speck.replay"))
	res.set("speck.decode_ms", t.ms("decode/speck.decode"))
	res.set("speck.bits", float64(cs.speckBits))
	res.set("outlier.encode_ms", t.ms("encode/outlier.encode"))
	res.set("outlier.decode_ms", t.ms("decode/outlier.decode"))
	res.set("outlier.count", float64(cs.outliers))
	res.set("outlier.bits", float64(cs.outlierBits))
	res.set("lossless.compress_ms", t.ms("encode/lossless.compress"))
	res.set("lossless.decompress_ms", t.ms("decode/lossless.decompress"))
	res.set("lossless.bytes_in", float64(cs.bytesIn))
	res.set("lossless.bytes_out", float64(cs.bytesOut))
	res.set("codec.scan_ms", t.ms("encode/codec.scan"))
	res.set("codec.encode_ms", t.ms("codec.encode"))
	res.set("codec.decode_ms", t.ms("codec.decode"))
	var encStages, decStages float64
	for _, s := range []string{"wavelet.forward", "speck.encode", "speck.replay", "wavelet.inverse", "codec.scan", "outlier.encode", "lossless.compress"} {
		encStages += t.ms("encode/" + s)
	}
	for _, s := range []string{"lossless.decompress", "speck.decode", "wavelet.inverse", "outlier.decode"} {
		decStages += t.ms("decode/" + s)
	}
	res.set("codec.encode_unattributed_ms", t.ms("codec.encode")-encStages)
	res.set("codec.decode_unattributed_ms", t.ms("codec.decode")-decStages)
}

// encodeStages is the encode pipeline of one chunk, stage by stage with
// production's parameters (q = 1.5 tol, as the stream's header records).
func (l *ledger) encodeStages(st *stageScratch, rep int, c *tracedChunk) (speckBits, outlierBits uint64, outliers int, err error) {
	rec, op := l.rec, l.rec.nextOp()
	stage := func(name string, parent int, f func()) {
		l.t.add("encode/"+name, rep, rec.time(name, parent, op, f))
	}
	n, q, tol := c.dims.Len(), c.meta.Q, c.meta.Tol
	coeffs := st.prepare(c.dims)

	root := rec.begin("reenact.encode", -1, op)
	stage("codec.copy", root, func() { copy(coeffs, c.slab) })
	stage("wavelet.forward", root, func() { st.plan.ForwardScratchThreads(coeffs, &st.wav, 1) })
	var sres *speck.Result
	stage("speck.encode", root, func() { sres = speck.EncodeScratchWorkers(coeffs, c.dims, q, 0, 1, &st.spk) })
	var recon []float64
	var replayed bool
	stage("speck.replay", root, func() { recon, replayed = speck.ReplayScratch(c.dims, q, &st.spk) })
	if !replayed {
		return 0, 0, 0, errors.New("speck.ReplayScratch declined; the re-enactment follows the replay path only")
	}
	stage("wavelet.inverse", root, func() { st.plan.InverseScratchThreads(recon, &st.wav, 1) })
	outs := st.outs[:0]
	stage("codec.scan", root, func() {
		// Stands in for codec's private scanOutliers: the same compare.
		for i, x := range c.slab {
			if diff := x - recon[i]; math.Abs(diff) > tol {
				outs = append(outs, outlier.Outlier{Pos: i, Corr: diff})
			}
		}
	})
	st.outs = outs
	var ores *outlier.Result
	stage("outlier.encode", root, func() { ores = outlier.EncodeScratch(n, tol, outs, &st.outl) })
	rec.end(root)

	var packed []byte
	stage("lossless.compress", -1, func() { packed = lossless.Compress(c.payload) })

	body := c.payload[chunkHeaderBytes:]
	speckBytes := int((sres.Bits + 7) / 8)
	switch {
	case sres.Bits != c.meta.SpeckBits || ores.Bits != c.meta.OutlierBits:
		err = fmt.Errorf("re-enacted %d SPECK + %d outlier bits, production coded %d + %d",
			sres.Bits, ores.Bits, c.meta.SpeckBits, c.meta.OutlierBits)
	case speckBytes > len(body) || !bytes.Equal(sres.Stream[:speckBytes], body[:speckBytes]):
		err = errors.New("re-enacted SPECK stream differs from production's")
	case !bytes.Equal(ores.Stream, body[speckBytes:]):
		err = errors.New("re-enacted outlier stream differs from production's")
	case !bytes.Equal(packed, c.stream):
		err = errors.New("lossless.Compress of the payload differs from production's stream")
	}
	return sres.Bits, ores.Bits, len(outs), err
}

// decodeStages is the decode mirror of one chunk. The returned slice
// aliases the scratch.
func (l *ledger) decodeStages(st *stageScratch, rep int, c *tracedChunk) ([]float64, error) {
	rec, op := l.rec, l.rec.nextOp()
	stage := func(name string, parent int, f func()) {
		l.t.add("decode/"+name, rep, rec.time(name, parent, op, f))
	}
	m := c.meta
	st.prepare(c.dims)

	root := rec.begin("reenact.decode", -1, op)
	var err error
	stage("lossless.decompress", root, func() { st.payload, err = lossless.DecompressInto(st.payload, c.stream) })
	if err != nil {
		return nil, err
	}
	body := st.payload[chunkHeaderBytes:]
	speckBytes := int((m.SpeckBits + 7) / 8)
	var coeffs []float64
	stage("speck.decode", root, func() {
		coeffs = speck.DecodeScratchWorkers(body[:speckBytes], m.SpeckBits, c.dims, m.Q, m.Planes, 1, &st.spk)
	})
	stage("wavelet.inverse", root, func() { st.plan.InverseScratchThreads(coeffs, &st.wav, 1) })
	stage("outlier.decode", root, func() {
		if m.OutlierBits == 0 {
			return
		}
		for _, o := range outlier.DecodeScratch(body[speckBytes:], m.OutlierBits, c.dims.Len(), m.Tol, m.OutlierPasses, &st.outl) {
			coeffs[o.Pos] += o.Corr
		}
	})
	rec.end(root)
	return coeffs, nil
}

// chunkLayer times one repetition of chunk.Compress and chunk.Decompress
// at one worker (so the codec times are what they contain) and at two (what
// the gated runs use), and one region decode of a seeded box.
func (l *ledger) chunkLayer(rep int) {
	in, ck, container := l.rig.in, l.rig.ck, l.rig.container
	vol := grid.FromSlice(grid.D3(in.dims[0], in.dims[1], in.dims[2]), in.data)
	opts := chunk.Options{Params: codec.Params{Mode: codec.ModePWE, Tol: in.tol}, ChunkDims: l.chunkDims}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		suffix := fmt.Sprintf(".w%d", workers)
		var stream []byte
		var recon *grid.Volume
		var err error
		l.timed("chunk.compress"+suffix, rep, func() {
			stream, _, err = chunk.Compress(vol, opts)
		})
		ck.op("chunk.Compress repeats the container", err == nil && bytes.Equal(stream, container))
		l.timed("chunk.decompress"+suffix, rep, func() {
			recon, err = chunk.Decompress(container, workers)
		})
		ck.op("chunk.Decompress matches the oracle", err == nil && sameBits(recon.Data, ck.oracle))
	}
	origin := in.origins[rep]
	var cut *grid.Volume
	var err error
	l.timed("chunk.region", rep, func() {
		cut, err = chunk.DecompressRegion(container, origin[0], origin[1], origin[2], grid.D3(in.box[0], in.box[1], in.box[2]), 1)
	})
	ck.op("chunk.DecompressRegion matches the oracle", err == nil && ck.cutoutMatches(cut.Data, origin, in.box))
}

func (l *ledger) reportChunkLayer() {
	t, res := l.t, l.res
	res.set("chunk.compress_ms", t.ms("chunk.compress.w1"))
	res.set("chunk.decompress_ms", t.ms("chunk.decompress.w1"))
	res.set("chunk.encode_self_ms", t.ms("chunk.compress.w1")-t.ms("codec.encode"))
	res.set("chunk.decode_self_ms", t.ms("chunk.decompress.w1")-t.ms("codec.decode"))
	res.set("chunk.region_ms", t.ms("chunk.region"))
	res.set("chunk.speedup_w2", (t.ms("chunk.compress.w1")+t.ms("chunk.decompress.w1"))/
		(t.ms("chunk.compress.w2")+t.ms("chunk.decompress.w2")))
}

// adaptive prices per-chunk backend selection on the same field and
// tolerance: one encode at one worker, its time and its size.
func (l *ledger) adaptive() error {
	in, ck := l.rig.in, l.rig.ck
	opts := &sperr.Options{ChunkDims: [3]int{l.chunkDims.NX, l.chunkDims.NY, l.chunkDims.NZ}, Workers: 1}
	var stream []byte
	var stats *sperr.Stats
	var err error
	d := l.rec.time("codec.adaptive_encode", -1, l.rec.nextOp(), func() {
		stream, stats, err = sperr.CompressAdaptive(in.data, in.dims, in.tol, opts)
	})
	if err != nil {
		return err
	}
	recon, _, err := sperr.Decompress(stream)
	ck.op("adaptive decode within the bound", err == nil && ck.withinBound(recon))
	l.res.set("codec.adaptive_encode_ms", ms(d))
	l.res.set("codec.adaptive_bits_per_point", stats.BPP)
	return nil
}

// storeLayer times the store without HTTP: ingest (Delete + Put), and
// region reads against a cache that holds everything and one that holds an
// eighth.
func (l *ledger) storeLayer() error {
	in, ck, container := l.srv.in, l.srv.ck, l.srv.container
	dir, err := os.MkdirTemp(l.o.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	reps := l.o.sz.reps

	for _, tier := range []struct {
		name  string
		cache int64
		reads int
	}{
		{"hit", in.cacheSamples(false), 16 * reps},
		{"miss", in.cacheSamples(true), 5 * reps},
	} {
		st, err := store.Open(filepath.Join(dir, tier.name), store.Options{CacheSamples: tier.cache})
		if err != nil {
			return err
		}
		defer st.Close()
		meta, _, err := st.Put(container)
		if err != nil {
			return err
		}
		if tier.name == "hit" {
			for rep := 0; rep < reps; rep++ {
				var err error
				l.timed("store.put", rep, func() {
					if err = st.Delete(meta.ID); err == nil {
						_, _, err = st.Put(container)
					}
				})
				ck.op("Store.Delete then Put", err == nil)
			}
			full, _, err := st.Region(ctx, meta.ID, [3]int{}, in.dims, nproc())
			ck.op("Store.Region of the full volume", err == nil && sameBits(full, ck.oracle))
		}
		var lat []time.Duration
		for i := 0; i < tier.reads; i++ {
			origin := in.origins[i]
			var data []float64
			var stats *store.RegionStats
			var err error
			lat = append(lat, l.rec.time("store.region_"+tier.name, -1, l.rec.nextOp(), func() {
				data, stats, err = st.Region(ctx, meta.ID, origin, in.box, nproc())
			}))
			// The large cache must serve every read whole; the small one may
			// now and then hold all the chunks a box touches.
			ck.op("Store.Region "+tier.name, err == nil && ck.cutoutMatches(data, origin, in.box) && (tier.name != "hit" || stats.Cached()))
		}
		l.res.set("store.region_"+tier.name+"_ms", percentile(lat, 50))
	}
	l.res.set("store.put_ms", l.t.ms("store.put"))
	return nil
}

// serverLayer puts one client in front of a single node in the workload's
// cache regime and reads the seeded boxes over HTTP, in alternating
// untraced and traced blocks whose wall ratio is the tracing overhead.
func (l *ledger) serverLayer() error {
	in, ck, container := l.srv.in, l.srv.ck, l.srv.container
	blockReads, storeMS, want := 50*l.o.sz.reps, l.res.values["store.region_hit_ms"], "hit"
	if l.w.cold {
		blockReads, storeMS, want = 4*l.o.sz.reps, l.res.values["store.region_miss_ms"], ""
	}
	fl, err := startFleet(l.o.tmp, 1, in.cacheSamples(l.w.cold))
	if err != nil {
		return err
	}
	defer fl.stop()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &caller{hc: hc}
	nd := fl.nodes[0]
	id, _, ok := c.put(nd.url, container)
	if !ok {
		return errors.New("server layer: ingest failed")
	}
	read := func(i int) (time.Duration, bool) {
		origin := in.origins[i%len(in.origins)]
		d, rejected, ok := c.region(nd.url, id, origin, in.box, false, want)
		ck.op("server region read", ok && ck.regionMatches(c.body.Bytes(), origin, in.box))
		return d, rejected
	}
	if !l.w.cold {
		_, _, ok := c.region(nd.url, id, [3]int{}, in.dims, false, "")
		ck.op("server full-volume read", ok && ck.regionMatches(c.body.Bytes(), [3]int{}, in.dims))
	}
	for i := 0; i < blockReads; i++ { // untimed: connection, pools, cache
		read(i)
	}

	sc, st := nd.srv.Store().Cache(), nd.srv.Store()
	queue := nd.srv.Registry().Histogram("sperrd_queue_wait_seconds", nil)
	hits0, misses0, evictions0, decodes0 := sc.Hits(), sc.Misses(), sc.Evictions(), st.Decodes()
	queueSum0, queueN0 := queue.Sum(), queue.Count()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	var lat []time.Duration
	var wall [2]time.Duration // untraced, traced
	var rejected int
	for block := 0; block < 4; block++ {
		traced := block%2 == 1
		for i := 0; i < blockReads; i++ {
			var d time.Duration
			var rej bool
			if traced {
				l.rec.time("server.read", -1, l.rec.nextOp(), func() { d, rej = read(i) })
			} else {
				d, rej = read(i)
			}
			lat = append(lat, d)
			wall[block%2] += d
			if rej {
				rejected++
			}
		}
	}
	runtime.ReadMemStats(&mem1)
	reads := float64(len(lat))
	hits, misses := float64(sc.Hits()-hits0), float64(sc.Misses()-misses0)

	res := l.res
	res.set("store.hit_ratio", hits/(hits+misses))
	res.set("store.decodes_per_read", float64(st.Decodes()-decodes0)/reads)
	res.set("store.evictions_per_read", float64(sc.Evictions()-evictions0)/reads)
	res.set("server.read_overhead_ms", percentile(lat, 50)-storeMS)
	res.set("server.read_p95_ms", percentile(lat, 95))
	res.set("server.read_p99_ms", percentile(lat, 99))
	res.set("server.read_samples", reads)
	queueMS := 0.0
	if n := queue.Count() - queueN0; n > 0 {
		queueMS = (queue.Sum() - queueSum0) / float64(n) * 1e3
	}
	res.set("server.queue_wait_ms", queueMS)
	res.set("server.allocs_per_read", float64(mem1.Mallocs-mem0.Mallocs)/reads)
	res.set("server.rejected", float64(rejected))
	res.set("bench.trace_overhead", wall[1].Seconds()/wall[0].Seconds())
	return nil
}

// clusterLayer calls the distribution layer directly on one peer of three
// (no coordinator HTTP), then runs the peer-loss phase over HTTP.
func (l *ledger) clusterLayer() error {
	in, ck, container := l.srv.in, l.srv.ck, l.srv.container
	fl, err := startFleet(l.o.tmp, 3, in.cacheSamples(false))
	if err != nil {
		return err
	}
	defer fl.stop()
	ctx := context.Background()
	a := fl.nodes[0].srv.Cluster()
	meta, _, err := a.Ingest(ctx, container)
	if err != nil {
		return err
	}
	for rep := 0; rep < l.o.sz.reps; rep++ {
		var err error
		if err = a.Delete(ctx, meta.ID); err == nil {
			l.timed("cluster.ingest", rep, func() {
				_, _, err = a.Ingest(ctx, container)
			})
		}
		ck.op("Cluster.Delete then Ingest", err == nil)
	}
	stored := fl.storedBytes()

	// Region hands pieces to emit, possibly from several goroutines; each
	// is checked against the oracle and then dropped.
	var bad atomic.Bool
	emit := func(p cluster.ChunkPiece) error {
		if !ck.cutoutMatches(p.Samples, p.Origin, p.Dims) {
			bad.Store(true)
		}
		return nil
	}
	region := func(origin, box [3]int) (*cluster.RegionReport, time.Duration, bool) {
		var rep *cluster.RegionReport
		var err error
		bad.Store(false)
		d := l.rec.time("cluster.region", -1, l.rec.nextOp(), func() {
			rep, err = a.Region(ctx, meta.ID, origin, box, cluster.RegionOptions{Workers: nproc(), Fill: math.NaN()}, emit)
		})
		return rep, d, err == nil && len(rep.Skipped) == 0 && !bad.Load()
	}
	_, _, ok := region([3]int{}, in.dims) // decodes every chunk on its primary owner
	ck.op("Cluster.Region of the full volume", ok)
	var lat []time.Duration
	var chunks, remote, failedOver int
	for i := 0; i < 16*l.o.sz.reps; i++ {
		rep, d, ok := region(in.origins[i], in.box)
		ck.op("Cluster.Region", ok)
		if ok {
			lat = append(lat, d)
			chunks, remote, failedOver = chunks+rep.Chunks, remote+rep.Remote, failedOver+rep.FailedOver
		}
	}
	res := l.res
	res.set("cluster.ingest_ms", l.t.ms("cluster.ingest"))
	res.set("cluster.region_ms", percentile(lat, 50))
	res.set("cluster.remote_share", float64(remote)/float64(chunks))
	res.set("cluster.failed_over", float64(failedOver))
	res.set("cluster.retries", float64(counterSum(fl.nodes, "sperrd_cluster_retries_total")))
	res.set("cluster.hedges", float64(counterSum(fl.nodes, "sperrd_cluster_hedges_total")))
	res.set("cluster.breaker_opens", float64(counterSum(fl.nodes, "sperrd_cluster_breaker_opens_total")))
	res.set("cluster.stored_ratio", float64(stored)/float64(len(container)))

	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	lossFailedOver, lossBreakerOpens := peerLoss(fl, &caller{hc: hc}, meta.ID, ck, l.o.sz.lossReads)
	res.set("cluster.loss_failed_over", float64(lossFailedOver))
	res.set("cluster.loss_breaker_opens", float64(lossBreakerOpens))
	return nil
}

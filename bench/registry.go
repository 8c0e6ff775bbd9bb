package main

import "fmt"

// A workload is one named set of inputs and calls. Codec workloads drive
// the library; serving workloads drive in-process sperrd nodes over
// loopback HTTP. chunkDiv and the cache share are relative to the field
// so the test configuration can shrink everything together.
type workload struct {
	Name string
	Why  string

	tolFrac  float64 // tolerance as a share of the field's value range
	chunkDiv int     // chunk edge = field edge / chunkDiv
	serving  bool    // false: library calls; true: sperrd over HTTP
	cold     bool    // decoded cache capped at 1/8 of the volume (else 2x)
	peers    int     // > 1: a cluster of that many in-process nodes, 2 replicas
}

var workloads = []workload{
	{
		Name:    "codec_tight",
		Why:     "CompressPWE/Decompress at tol = range*1e-6 (about 15 bit/pt): many bit-planes, so SPECK is most of the stage time and a SPECK change shows here",
		tolFrac: 1e-6, chunkDiv: 2,
	},
	{
		Name:    "codec_loose",
		Why:     "same calls at tol = range*1e-2 (about 1.5 bit/pt): SPECK shrinks, so wavelet, locate, outlier coding and DEFLATE carry the time and a SPECK-only change predicts no movement",
		tolFrac: 1e-2, chunkDiv: 2,
	},
	{
		Name:    "serve_hot",
		Why:     "one sperrd node with a decoded cache of twice the volume: region reads do no codec work, so this measures cache lookup, assembly, rawio and HTTP, and codec changes must not move it",
		tolFrac: 1e-3, chunkDiv: 4, serving: true,
	},
	{
		Name:    "serve_cold",
		Why:     "same node and requests with the cache capped at an eighth of the volume: every read plans, admits, CRC-checks, decodes and evicts; its ingest phase repeats serve_hot's as a noise canary",
		tolFrac: 1e-3, chunkDiv: 4, serving: true, cold: true,
	},
	{
		Name:    "cluster_r2",
		Why:     "three in-process peers with two replicas: ingest slices and fans out, reads scatter-gather round-robin over all coordinators, so ring lookup, peer fetch, wire framing and assembly show",
		tolFrac: 1e-3, chunkDiv: 4, serving: true, peers: 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricKind says what values a healthy run may report, which is what the
// registry test enforces.
type metricKind int

const (
	positive metricKind = iota // a time, rate or size: above zero on every run
	counter                    // a count or share that is zero in a healthy run
	signed                     // a difference of two measurements: noise can push it below zero
)

// A metric is one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
// moves records, for a per-layer metric, which end-to-end metric it should
// move and on which workload.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64

	kind  metricKind
	moves string
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "write_mb_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "read_mb_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "bits_per_point", Unit: "bit/pt", Better: "lower", Bound: 0.01},
}

var perLayer = []metric{
	{Name: "wavelet.forward_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on codec_loose (little on codec_tight)"},
	{Name: "wavelet.inverse_ms", Unit: "ms", Better: "lower", moves: "read_mb_s on both codec workloads and serve_cold; write_mb_s through locate"},
	{Name: "speck.encode_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on codec_tight"},
	{Name: "speck.replay_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on codec_tight"},
	{Name: "speck.decode_ms", Unit: "ms", Better: "lower", moves: "read_mb_s and read_p50_ms on codec_tight and serve_cold"},
	{Name: "speck.bits", Unit: "bits", Better: "lower", moves: "bits_per_point (exact)"},
	{Name: "outlier.encode_ms", Unit: "ms", Better: "lower", kind: counter, moves: "write_mb_s on codec_loose"},
	{Name: "outlier.decode_ms", Unit: "ms", Better: "lower", kind: counter, moves: "read_mb_s on codec_loose"},
	{Name: "outlier.count", Unit: "count", Better: "lower", kind: counter, moves: "bits_per_point (exact)"},
	{Name: "outlier.bits", Unit: "bits", Better: "lower", kind: counter, moves: "bits_per_point (exact)"},
	{Name: "lossless.compress_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on codec_loose"},
	{Name: "lossless.decompress_ms", Unit: "ms", Better: "lower", moves: "read_mb_s on codec_loose"},
	{Name: "lossless.bytes_in", Unit: "bytes", Better: "lower", moves: "bits_per_point: what DEFLATE is given (exact)"},
	{Name: "lossless.bytes_out", Unit: "bytes", Better: "lower", moves: "bits_per_point: what DEFLATE leaves (exact)"},
	{Name: "codec.encode_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on both codec workloads, scaled by chunk.speedup_w2"},
	{Name: "codec.decode_ms", Unit: "ms", Better: "lower", moves: "read_mb_s on both codec workloads and serve_cold"},
	{Name: "codec.scan_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on codec_loose (the locate stage's compare loop)"},
	{Name: "codec.encode_unattributed_ms", Unit: "ms", Better: "lower", kind: signed, moves: "ROADMAP's under-5% row: copy-in, header, allocation"},
	{Name: "codec.decode_unattributed_ms", Unit: "ms", Better: "lower", kind: signed, moves: "ROADMAP's under-5% row on the decode side"},
	{Name: "codec.adaptive_encode_ms", Unit: "ms", Better: "lower", moves: "nothing gated yet: the cost side of the adaptive decision"},
	{Name: "codec.adaptive_bits_per_point", Unit: "bit/pt", Better: "lower", moves: "nothing gated yet: the size side of the adaptive decision"},
	{Name: "chunk.compress_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on both codec workloads"},
	{Name: "chunk.decompress_ms", Unit: "ms", Better: "lower", moves: "read_mb_s on both codec workloads"},
	{Name: "chunk.encode_self_ms", Unit: "ms", Better: "lower", kind: signed, moves: "write_mb_s: split, framing, CRC-32C, footer"},
	{Name: "chunk.decode_self_ms", Unit: "ms", Better: "lower", kind: signed, moves: "read_mb_s: frame walk, CRC-32C, copy-out"},
	{Name: "chunk.region_ms", Unit: "ms", Better: "lower", moves: "read_p50_ms on serve_cold"},
	{Name: "chunk.speedup_w2", Unit: "ratio", Better: "higher", moves: "scales every codec gain into write_mb_s and read_mb_s, which run at two workers"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on serve_hot and serve_cold"},
	{Name: "store.region_hit_ms", Unit: "ms", Better: "lower", moves: "read_p50_ms on serve_hot"},
	{Name: "store.region_miss_ms", Unit: "ms", Better: "lower", moves: "read_p50_ms and read_mb_s on serve_cold"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher", kind: counter, moves: "read_p50_ms: about 1 on serve_hot, near 0 on serve_cold"},
	{Name: "store.decodes_per_read", Unit: "count", Better: "lower", kind: counter, moves: "read_mb_s on serve_cold; 0 on serve_hot"},
	{Name: "store.evictions_per_read", Unit: "count", Better: "lower", kind: counter, moves: "read_mb_s on serve_cold; 0 on serve_hot"},
	{Name: "server.read_overhead_ms", Unit: "ms", Better: "lower", kind: signed, moves: "read_p50_ms on serve_hot: parse, admission, rawio, socket"},
	{Name: "server.read_p95_ms", Unit: "ms", Better: "lower", moves: "tail latency, reported and not gated"},
	{Name: "server.read_p99_ms", Unit: "ms", Better: "lower", moves: "tail latency; read it with server.read_samples, it needs 1000"},
	{Name: "server.read_samples", Unit: "count", Better: "higher", moves: "how many reads the two percentiles stand on"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", kind: counter, moves: "read_p50_ms on serve_cold under admission pressure"},
	{Name: "server.allocs_per_read", Unit: "count", Better: "lower", moves: "read_p50_ms on serve_hot (client and server side together)"},
	{Name: "server.rejected", Unit: "count", Better: "lower", kind: counter, moves: "ops_failed: 429 and 503 answers"},
	{Name: "cluster.ingest_ms", Unit: "ms", Better: "lower", moves: "write_mb_s on cluster_r2"},
	{Name: "cluster.region_ms", Unit: "ms", Better: "lower", moves: "read_p50_ms on cluster_r2"},
	{Name: "cluster.remote_share", Unit: "ratio", Better: "lower", kind: counter, moves: "read_p50_ms on cluster_r2: chunks fetched from another peer"},
	{Name: "cluster.failed_over", Unit: "count", Better: "lower", kind: counter, moves: "non-zero marks a disturbed healthy phase"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", kind: counter, moves: "non-zero marks a disturbed run"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", kind: counter, moves: "non-zero marks a disturbed run"},
	{Name: "cluster.breaker_opens", Unit: "count", Better: "lower", kind: counter, moves: "non-zero marks a disturbed healthy phase"},
	{Name: "cluster.stored_ratio", Unit: "ratio", Better: "lower", moves: "bits_per_point on cluster_r2: bytes on all peers over container bytes"},
	{Name: "cluster.loss_failed_over", Unit: "count", Better: "higher", moves: "peer-loss phase: chunks a surviving replica served; must be above 0"},
	{Name: "cluster.loss_breaker_opens", Unit: "count", Better: "lower", kind: counter, moves: "peer-loss phase: breakers the dead peer opened"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", moves: "nothing: traced over untraced wall for the same reads"},
	{Name: "bench.host_pace", Unit: "ratio", Better: "lower", moves: "nothing: how much slower than the reference pace the host ran; per-layer times are not corrected by it"},
}

// results collects one run's metrics against a registry, refusing names the
// registry does not know and names set twice, so what a run prints cannot
// drift from what BENCHMARK.json declares.
type results struct {
	defs   []metric
	values map[string]float64
}

func newResults(defs []metric) *results {
	return &results{defs: defs, values: make(map[string]float64, len(defs))}
}

func (r *results) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	for _, d := range r.defs {
		if d.Name == name {
			r.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the registry")
}

// complete reports the registered metrics a run failed to set.
func (r *results) complete() error {
	for _, d := range r.defs {
		if _, ok := r.values[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	return nil
}

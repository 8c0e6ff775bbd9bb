# SPERR-Go development targets.

GO ?= go

.PHONY: all build vet fmt-check format-owner-check test test-race faultinject fuzz bench bench-kernels bench-check bench-e2e profile-kernels cover experiments examples serve-smoke clean

all: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate; bench/ is excluded because a PR that claims a gain may not
# edit it, so its formatting is fixed only by a benchmark PR.
fmt-check:
	test -z "$$(gofmt -l . | grep -v '^bench/')"

# The container format has one owner: no non-test Go file outside
# internal/chunk/ may name a container or index magic (SPRRGO*, SPRRIX*),
# so every other package reads containers through the chunk layer.
format-owner-check:
	@bad="$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/chunk/*' ! -path './.bench_build/*' \
		-exec grep -l -e SPRRGO -e SPRRIX {} +)"; \
	if [ -n "$$bad" ]; then echo "container magic outside internal/chunk/:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Race-hardened tier: the parallel chunk pipeline, scratch pooling, and
# instrumentation delivery all run under the race detector. The cluster
# fault tests (cut and stalled peer streams, failover, degradation,
# breakers) then run 25 more times: their races only show on some
# schedules. So do the band pool and assembler tests and the endpoint
# differential, 10 more times: a band recycled before its write went out
# races only on some schedules. The chunk pipe (the decode loop and the
# streaming Writer on it), the streaming engines' cancellation, memory
# and delivery tests, the store's read step and its slab cache run 10 more
# times too: a job dispatched after an error, an arena reused before its
# callback returned, or a registry gauge the cache updates under its lock
# shows only on some schedules.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=25 -run 'Cut|Failover|Degrade|Repeated|Breaker|AfterReturn' ./internal/cluster/
	$(GO) test -race -count=10 -run 'BandPool|Recycles|Assembler|Differential' ./internal/server/
	$(GO) test -race -count=10 -run 'ReadChunkErrorPolicy|RegionStops|Lookup|SlabCache' ./internal/store/
	$(GO) test -race -count=10 -run 'DecodeLoop|Pipe|Writer' ./internal/chunk/
	$(GO) test -race -count=10 -run 'Context|BoundedMemory|ChunkDelivery|Abandoned|Serial' .

# Deterministic corruption campaign over the golden fixtures: every
# frame-boundary truncation plus stratified byte flips and zeroed runs,
# asserting no panic, bounded time and allocation, and exact salvage
# recovery of the checksum-intact chunks. The same campaign also runs
# over stub-shard containers, asserting damaged frames never pass the
# ownership audit and that shard damage on one peer never corrupts a
# full-cluster read while a clean replica exists.
faultinject:
	$(GO) test -race -count=1 -v -run 'TestCampaign' ./internal/faultinject/

# Short fuzz smoke over the targets that take bytes from outside — the
# container decoders, the outlier decoder, a peer's chunk-stream answer
# as the coordinator parses it, and a peer's shard as MergeShards folds it
# in (two whole containers per input, so its minimisation is capped or one
# interesting input eats the whole budget); raise FUZZTIME for a longer
# exploration.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) -run=^$$ .
	$(GO) test -fuzz=FuzzCompressDecompress -fuzztime=$(FUZZTIME) -run=^$$ .
	$(GO) test -fuzz=FuzzOutlierDecode -fuzztime=$(FUZZTIME) -run=^$$ ./internal/outlier/
	$(GO) test -fuzz=FuzzDecodeMatchesOracle -fuzztime=$(FUZZTIME) -run=^$$ ./internal/speck/
	$(GO) test -fuzz=FuzzChunkFrames -fuzztime=$(FUZZTIME) -run=^$$ ./internal/cluster/
	$(GO) test -fuzz=FuzzMergeShards -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run=^$$ ./internal/chunk/

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-kernel micro-benchmarks: fused-lifting wavelet passes (vector lanes
# where the CPU has them, and the ...GoRows twins with the portable Go
# rows forced; these and the outlier rows at -cpu 1, as recorded), integer
# bit-plane SPECK (rows at two steps — 6.5 bit/pt, and the ...Tight rows
# at 16.5 bit/pt, where refinement bits dominate — and SpeckReplay), the
# outlier coder at production density (a 64^3 chunk with 10% and 2.5%
# outliers), word-batched bit I/O, the end-to-end one-chunk pipeline
# (CompressPWE64, Decompress64), one chunk of the codec workloads' own
# field on a warm arena (EncodeChunkMiranda, -cpu 1: a 64^3 cut of
# MirandaPressure realization 1 at range*1e-6 and 1e-2), the streaming
# engine (which also reports
# peak-inflight-bytes, its bounded-memory witness), and the hot cluster
# read (ClusterRegionHot: three in-process peers, two replicas, warm
# caches, 48^3 boxes of a 128^3 volume — B/op is its allocation guard,
# about one response) and its single-node twin (StoreRegionHot:
# serve_hot's read phase, same boxes, a cache of twice the volume), and
# the cold-cache witness (RegionColdSkewed: a cache of an eighth of the
# volume under a replayed box sequence, whose decodes/op and hit-ratio
# are exact counts at its fixed -benchtime). The
# determinism smoke runs first. Compare rows only at a stated -cpu;
# BENCH_KERNELS.json records host and method.
bench-kernels:
	$(GO) test -run='TestParallelCoderMatchesSerialGolden' -count=1 .
	$(GO) test -run='^$$' -bench='WaveletForward3D|WaveletInverse3D' -benchmem -cpu 1 ./internal/wavelet/
	$(GO) test -run='^$$' -bench='SpeckEncode|SpeckDecode|SpeckReplay' -benchmem ./internal/speck/
	$(GO) test -run='^$$' -bench='OutlierEncode|OutlierDecode|OutlierApply' -benchmem -cpu 1 ./internal/outlier/
	$(GO) test -run='^$$' -bench='BitsReadWrite' -benchmem ./internal/bits/
	$(GO) test -run='^$$' -bench='CompressPWE64|Decompress64|DecompressBPP64|DecompressPartial64' -benchmem .
	$(GO) test -run='^$$' -bench='StreamCompress|StreamDecompress' -benchmem .
	$(GO) test -run='^$$' -bench='RegionCached|RegionUncached' -benchmem ./internal/store/
	$(GO) test -run='^$$' -bench='RegionColdSkewed' -benchtime=200x -benchmem ./internal/store/
	$(GO) test -run='^$$' -bench='ClusterRegionHot|StoreRegionHot' -benchmem ./internal/server/
	$(GO) test -run='^$$' -bench='AdaptiveSelect' -benchmem .
	$(GO) test -run='^$$' -bench='ProfileChunk' -benchmem ./internal/codec/
	$(GO) test -run='^$$' -bench='EncodeChunkMiranda' -benchmem -cpu 1 ./internal/codec/

# The end-to-end benchmark is its own module (bench/, which imports this
# one through a replace), so `go build ./...` at the root never compiles
# it; the root test TestBenchModuleCompiles vets it so a changed internal
# signature fails tier-1. bench-check additionally runs its
# tiny-configuration tests (~5 s);
# bench-e2e is the full run the driver makes (see bench/README.md).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	bash bench/run.sh

bench-log:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# CPU and heap profiles of the hot coding kernels, written under
# profiles/ for `go tool pprof`. End-to-end runs can be profiled instead
# via `sperr -c/-d -cpuprofile=... -memprofile=...`.
profile-kernels:
	mkdir -p profiles
	$(GO) test -run='^$$' -bench='SpeckEncode$$|SpeckDecode$$' -benchtime=5x \
		-cpuprofile=profiles/speck.cpu.pprof -memprofile=profiles/speck.mem.pprof \
		-o profiles/speck.test ./internal/speck/
	$(GO) test -run='^$$' -bench='WaveletForward3D|WaveletInverse3D' -benchtime=5x -cpu 1 \
		-cpuprofile=profiles/wavelet.cpu.pprof -memprofile=profiles/wavelet.mem.pprof \
		-o profiles/wavelet.test ./internal/wavelet/

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/sperrbench -exp all | tee experiments_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/climate
	$(GO) run ./examples/turbulencedb
	$(GO) run ./examples/compressors
	$(GO) run ./examples/multires
	$(GO) run ./examples/insitu

# The one forked-daemon check: builds sperrd, boots three peers from
# their flags with two replicas per chunk, round-trips a volume over HTTP
# (PWE bound checked), reads the golden v3 fixture through every
# coordinator (bit-identical to a single-node decode), SIGKILLs the
# primary of chunk 0 with reads in flight (every read stays 200, ok and
# bit-identical; the failover counter moves), then requires each
# survivor's SIGTERM drain to exit 0. Degradation, scrub healing and the
# single-node surfaces are tested in-process (go test ./internal/server).
serve-smoke:
	$(GO) run ./scripts/servesmoke

clean:
	$(GO) clean ./...

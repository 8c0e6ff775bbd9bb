package sperr

// This file is the benchmark harness for the paper's evaluation: one
// testing.B benchmark per table and figure (run with
// `go test -bench=. -benchmem`), each delegating to the corresponding
// driver in internal/experiments, plus end-to-end micro-benchmarks of the
// public API. DESIGN.md holds the experiment-to-module index and
// EXPERIMENTS.md the recorded paper-vs-measured outcomes. The experiment
// benchmarks run the Quick configuration so a full -bench=. sweep stays
// laptop-sized; cmd/sperrbench runs the full sweeps.

import (
	"bytes"
	"io"
	"math"
	"testing"

	"sperr/internal/experiments"
	"sperr/internal/grid"
	"sperr/internal/synth"
)

func benchCfg() experiments.Config {
	return experiments.Config{Dims: grid.D3(32, 32, 32), Seed: 2023, Quick: true}
}

func runExperiment(b *testing.B, drv func(experiments.Config) *experiments.Result) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		r := drv(cfg)
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", r.ID)
		}
		r.Print(io.Discard)
	}
}

// BenchmarkTableI regenerates Table I (idx -> tolerance translation).
func BenchmarkTableI(b *testing.B) { runExperiment(b, experiments.TableI) }

// BenchmarkTableII regenerates Table II (field/level abbreviations).
func BenchmarkTableII(b *testing.B) {
	runExperiment(b, func(experiments.Config) *experiments.Result { return experiments.TableII() })
}

// BenchmarkFigure1 regenerates Figure 1 (outlier spatial correlation).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, experiments.Figure1) }

// BenchmarkFigure2 regenerates Figure 2 (coding cost vs q, U-shape).
func BenchmarkFigure2(b *testing.B) { runExperiment(b, experiments.Figure2) }

// BenchmarkFigure3 regenerates Figure 3 (bitrate and PSNR differences vs q).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, experiments.Figure3) }

// BenchmarkFigure4 regenerates Figure 4 (bits-per-outlier vs q).
func BenchmarkFigure4(b *testing.B) { runExperiment(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates Figure 5 (chunk size vs accuracy gain).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates Figure 6 (pipeline time breakdown).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates Figure 7 (strong scaling).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates Figure 8 (rate-distortion, five compressors).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates Figure 9 (bitrate to satisfy a PWE bound).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates Figure 10 (compression wall time).
func BenchmarkFigure10(b *testing.B) { runExperiment(b, experiments.Figure10) }

// BenchmarkFigure11 regenerates Figure 11 (outlier coder vs SZ quant bins).
func BenchmarkFigure11(b *testing.B) { runExperiment(b, experiments.Figure11) }

// BenchmarkAblationLossless measures the final lossless stage's saving.
func BenchmarkAblationLossless(b *testing.B) { runExperiment(b, experiments.AblationLossless) }

// BenchmarkAblationOutlierCoder compares outlier storage schemes.
func BenchmarkAblationOutlierCoder(b *testing.B) { runExperiment(b, experiments.AblationOutlierCoder) }

// BenchmarkAblationPredictor compares the SZ baseline's predictors.
func BenchmarkAblationPredictor(b *testing.B) { runExperiment(b, experiments.AblationPredictor) }

// BenchmarkAblationBitGroom compares SPERR with the bit-grooming floor.
func BenchmarkAblationBitGroom(b *testing.B) { runExperiment(b, experiments.AblationBitGroom) }

// --- end-to-end micro-benchmarks of the public API --------------------

func benchVolume(n int) []float64 {
	v := synth.MirandaVelocityX(grid.D3(n, n, n), 1)
	return v.Data
}

// BenchmarkCompressPWE64 measures the single-threaded pipeline on one
// chunk.
func BenchmarkCompressPWE64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	opts := &Options{Workers: 1}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressBPP64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CompressBPP(data, [3]int{n, n, n}, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	stream, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressPWEParallel64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	opts := &Options{ChunkDims: [3]int{32, 32, 32}, Workers: 4}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressPWEMultiChunk measures the steady-state allocation and
// throughput of the parallel chunk pipeline on a multi-chunk volume (8
// chunks of 48^3 inside 96^3 — the same shape as the paper's 256^3 volumes
// tiled by 128^3 chunks, scaled to benchmark size). Run with -benchmem:
// the scratch-arena pipeline should show near-zero per-chunk allocation
// once the worker pools warm up.
func BenchmarkCompressPWEMultiChunk(b *testing.B) {
	const n = 96
	data := benchVolume(n)
	for _, workers := range []int{1, 0} {
		name := "Workers=GOMAXPROCS"
		if workers == 1 {
			name = "Workers=1"
		}
		b.Run(name, func(b *testing.B) {
			opts := &Options{ChunkDims: [3]int{48, 48, 48}, Workers: workers}
			b.SetBytes(int64(len(data) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressMultiChunk is the decode-side counterpart.
func BenchmarkDecompressMultiChunk(b *testing.B) {
	const n = 96
	data := benchVolume(n)
	opts := &Options{ChunkDims: [3]int{48, 48, 48}}
	stream, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressBPP64 decodes a size-bounded stream: 4 bit/pt ends
// the SPECK stream mid-plane, so the decoder finishes a partial plane.
func BenchmarkDecompressBPP64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	stream, _, err := CompressBPP(data, [3]int{n, n, n}, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressPartial64(b *testing.B) {
	const n = 64
	data := benchVolume(n)
	stream, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-4, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecompressPartial(stream, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity anchor for the benchmarks above: the tolerance the micro-bench
// uses is meaningful for the synthetic field (not vacuously loose/tight).
func TestBenchToleranceSane(t *testing.T) {
	data := benchVolume(32)
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if r := hi - lo; r < 1 || r > 100 {
		t.Fatalf("bench field range %g unexpected", r)
	}
}

// BenchmarkStreamCompress measures the streaming Encoder fed plane by
// plane — the bounded-memory ingest path. Beyond throughput and allocs it
// reports peak-inflight-bytes: the maximum chunk samples resident in
// worker arenas, the quantity the engine promises to bound by
// workers x chunk size.
func BenchmarkStreamCompress(b *testing.B) {
	const n = 96
	data := benchVolume(n)
	plane := n * n
	opts := &Options{ChunkDims: [3]int{48, 48, 48}, Workers: 4}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	var peak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewEncoderPWE(io.Discard, [3]int{n, n, n}, 1e-3, opts)
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(data); off += plane {
			if _, err := enc.Write(data[off : off+plane]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			b.Fatal(err)
		}
		if p := enc.PeakInFlightSamples() * 8; p > peak {
			peak = p
		}
	}
	b.ReportMetric(float64(peak), "peak-inflight-bytes")
}

// BenchmarkStreamDecompress measures the streaming Decoder draining
// chunks through the callback without assembling the volume, with the
// same peak-inflight-bytes metric on the decode side.
func BenchmarkStreamDecompress(b *testing.B) {
	const n = 96
	data := benchVolume(n)
	stream, _, err := CompressPWE(data, [3]int{n, n, n}, 1e-3,
		&Options{ChunkDims: [3]int{48, 48, 48}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	var peak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(bytes.NewReader(stream))
		if err != nil {
			b.Fatal(err)
		}
		dec.SetWorkers(4)
		var sink float64
		err = dec.ForEachChunk(func(ch DecodedChunk) error {
			sink += ch.Data[0]
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if p := dec.PeakInFlightSamples() * 8; p > peak {
			peak = p
		}
		benchSink = sink
	}
	b.ReportMetric(float64(peak), "peak-inflight-bytes")
}

var benchSink float64

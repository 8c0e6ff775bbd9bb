// Package sperr is a pure-Go implementation of SPERR (SPEck with ERRor
// bounding), the lossy compressor for structured scientific data described
// in "Lossy Scientific Data Compression With SPERR" (Li, Lindstrom, Clyne;
// IPDPS 2023).
//
// SPERR transforms a 2D slice or 3D volume with the CDF 9/7 biorthogonal
// wavelet, codes the coefficients with an improved SPECK algorithm, and —
// in error-bounded mode — explicitly corrects every point whose
// reconstruction error exceeds a user-prescribed point-wise tolerance,
// using a SPECK-inspired outlier coder. Large volumes are split into
// chunks compressed in parallel.
//
// Two compression modes are offered:
//
//   - CompressPWE bounds the maximum point-wise error: every value of the
//     decompressed data is within Tol of the original.
//   - CompressBPP bounds the output size at a target bitrate in bits per
//     point; the embedded SPECK bitstream is truncated at the budget.
//
// Basic usage:
//
//	stream, stats, err := sperr.CompressPWE(data, [3]int{nx, ny, nz}, 1e-6, nil)
//	...
//	recon, dims, err := sperr.Decompress(stream)
package sperr

import (
	"bytes"
	"errors"
	"math"
	"time"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
)

// DefaultChunkDim is the default chunk edge length (the paper's preferred
// 256; see Section V-B for the efficiency/parallelism trade-off).
const DefaultChunkDim = chunk.DefaultChunkDim

// DefaultQFactor is the default coefficient-coding quantization step in
// units of the error tolerance (q = 1.5t, Section IV-D).
const DefaultQFactor = codec.DefaultQFactor

// Options tunes compression. The zero value (or a nil pointer) selects the
// paper's defaults.
type Options struct {
	// ChunkDims bounds the chunk extent along x, y, z. Zero components
	// default to DefaultChunkDim. Chunk dims need not divide the volume
	// dims.
	ChunkDims [3]int
	// Workers is the number of chunks compressed concurrently; <= 0 means
	// GOMAXPROCS. Each chunk is coded on one goroutine, so a budget above
	// the chunk count leaves the surplus idle: split a volume into at
	// least Workers chunks (ChunkDims) to use them. Output streams are
	// byte-identical at every value.
	Workers int
	// QFactor sets the SPECK quantization step to QFactor*Tol in PWE mode;
	// zero means DefaultQFactor. Larger values shift storage from
	// coefficient coding to outlier coding (paper Section IV-D).
	QFactor float64
	// DisableLossless skips the final lossless (DEFLATE) stage.
	DisableLossless bool
	// Codec selects the coding backend for every chunk: "sperr" (or "",
	// the default), "sz", "zfp", "tthresh", or "mgard". Any value other
	// than SPERR requires PWE mode and writes a container-v3 stream whose
	// chunks the progressive (partial / low-res) decoders cannot open.
	// CompressAdaptive ignores this and picks a backend per chunk.
	Codec string
	// Instrument, when non-nil, receives one ChunkEvent per compressed
	// chunk. Events are delivered in chunk-index order regardless of
	// Workers (out-of-order completions wait in a reorder buffer), so an
	// instrumented run observes the same event sequence at any
	// parallelism. The callback runs on pipeline goroutines and
	// serializes them while it executes — keep it fast.
	Instrument func(ChunkEvent)
}

// ChunkEvent reports one completed chunk compression to the
// Options.Instrument hook: identity, sizes, wall time, the per-stage
// breakdown, and the arena allocation counter.
type ChunkEvent struct {
	// Index is the chunk's position in container (stream) order.
	Index int
	// Dims is the chunk extent.
	Dims [3]int
	// BytesIn is the uncompressed chunk size (points x 8 bytes);
	// BytesOut the compressed chunk stream size.
	BytesIn, BytesOut int
	// Codec names the backend that coded this chunk ("sperr" outside
	// adaptive or fixed-backend compressions).
	Codec string
	// WallTime covers the chunk's copy-in plus all four codec stages.
	WallTime time.Duration
	// TransformTime, SpeckTime, LocateTime and OutlierTime break the
	// chunk's cost into the four pipeline stages (PWE mode exercises all
	// four; other modes leave the outlier stages zero).
	TransformTime, SpeckTime, LocateTime, OutlierTime time.Duration
	// NumOutliers counts points the outlier coder corrected.
	NumOutliers int
	// ScratchGrows counts scratch-arena buffer (re)allocations during
	// this chunk; zero once the worker pool is warm — the pipeline's
	// per-chunk allocation counter.
	ScratchGrows int
}

func (o *Options) chunkOpts(p codec.Params) chunk.Options {
	co := chunk.Options{Params: p}
	if o != nil {
		co.ChunkDims = grid.Dims{NX: o.ChunkDims[0], NY: o.ChunkDims[1], NZ: o.ChunkDims[2]}
		co.Workers = o.Workers
		co.Params.QFactor = o.QFactor
		co.Params.DisableLossless = o.DisableLossless
		if o.Codec != "" && p.Mode != codec.ModeAdaptive {
			id, ok := codec.ParseCodecName(o.Codec)
			if !ok {
				// An unknown name must fail, not silently fall back to
				// SPERR; the out-of-range id is rejected by Params.Validate.
				id = codec.CodecID(0xFF)
			}
			co.Params.Codec = id
		}
		if hook := o.Instrument; hook != nil {
			co.Instrument = func(e chunk.Event) {
				hook(ChunkEvent{
					Index:         e.Index,
					Dims:          [3]int{e.Dims.NX, e.Dims.NY, e.Dims.NZ},
					BytesIn:       e.BytesIn,
					BytesOut:      e.BytesOut,
					Codec:         e.Codec.String(),
					WallTime:      e.WallTime,
					TransformTime: e.Stats.TransformTime,
					SpeckTime:     e.Stats.SpeckTime,
					LocateTime:    e.Stats.LocateTime,
					OutlierTime:   e.Stats.OutlierTime,
					NumOutliers:   e.Stats.NumOutliers,
					ScratchGrows:  e.ScratchGrows,
				})
			}
		}
	}
	return co
}

// Stats summarizes one compression.
type Stats struct {
	// CompressedBytes is the total container size.
	CompressedBytes int
	// NumPoints is the number of data values compressed.
	NumPoints int
	// BPP is the achieved bitrate in bits per point.
	BPP float64
	// NumChunks is how many independently coded chunks the volume used.
	NumChunks int
	// NumOutliers counts points corrected by the outlier coder (PWE mode).
	NumOutliers int
	// SpeckBits and OutlierBits split the pre-lossless coding cost between
	// the two coders (paper Figure 2).
	SpeckBits, OutlierBits uint64
	// WallTime is the end-to-end compression time.
	WallTime time.Duration
	// MaxChunkTime is the longest single-chunk wall time — the parallel
	// pipeline's critical path.
	MaxChunkTime time.Duration
	// TransformTime, SpeckTime, LocateTime and OutlierTime total the four
	// pipeline stages across all chunks (CPU time, so they can exceed
	// WallTime under parallel execution).
	TransformTime, SpeckTime, LocateTime, OutlierTime time.Duration
	// ScratchGrows totals scratch-arena buffer (re)allocations across all
	// workers; near zero in steady state.
	ScratchGrows int
	// CodecCounts maps backend name to the number of chunks it coded;
	// {"sperr": NumChunks} outside adaptive or fixed-backend compressions.
	CodecCounts map[string]int
}

func statsFrom(cs *chunk.Stats) *Stats {
	s := &Stats{
		CompressedBytes: cs.TotalBytes,
		NumPoints:       cs.NumPoints,
		BPP:             cs.BPP(),
		NumChunks:       len(cs.Chunks),
		NumOutliers:     cs.NumOutliers,
		SpeckBits:       cs.SpeckBits,
		OutlierBits:     cs.OutlierBits,
		WallTime:        cs.WallTime,
		MaxChunkTime:    cs.MaxChunkTime,
		ScratchGrows:    cs.ScratchGrows,
		CodecCounts:     cs.CodecCounts,
	}
	for i := range cs.Chunks {
		c := &cs.Chunks[i]
		s.TransformTime += c.TransformTime
		s.SpeckTime += c.SpeckTime
		s.LocateTime += c.LocateTime
		s.OutlierTime += c.OutlierTime
	}
	return s
}

var errDims = errors.New("sperr: dims must be positive and match data length (use nz = 1 for 2D)")

func makeVolume(data []float64, dims [3]int) (*grid.Volume, error) {
	d := grid.Dims{NX: dims[0], NY: dims[1], NZ: dims[2]}
	if !d.Valid() || d.Len() != len(data) {
		return nil, errDims
	}
	return grid.FromSlice(d, data), nil
}

// CompressPWE compresses data (row-major, x fastest, extent dims; use
// dims[2] = 1 for 2D slices) so that every reconstructed value is within
// tol of the original. opts may be nil for defaults.
func CompressPWE(data []float64, dims [3]int, tol float64, opts *Options) ([]byte, *Stats, error) {
	if !(tol > 0) {
		return nil, nil, errors.New("sperr: tolerance must be positive")
	}
	vol, err := makeVolume(data, dims)
	if err != nil {
		return nil, nil, err
	}
	co := opts.chunkOpts(codec.Params{Mode: codec.ModePWE, Tol: tol})
	stream, cs, err := chunk.Compress(vol, co)
	if err != nil {
		return nil, nil, err
	}
	return stream, statsFrom(cs), nil
}

// CompressBPP compresses data to approximately bitsPerPoint bits per value
// (size-bounded mode; no error guarantee). opts may be nil for defaults.
func CompressBPP(data []float64, dims [3]int, bitsPerPoint float64, opts *Options) ([]byte, *Stats, error) {
	if !(bitsPerPoint > 0) {
		return nil, nil, errors.New("sperr: bitsPerPoint must be positive")
	}
	vol, err := makeVolume(data, dims)
	if err != nil {
		return nil, nil, err
	}
	co := opts.chunkOpts(codec.Params{Mode: codec.ModeBPP, BitsPerPoint: bitsPerPoint})
	stream, cs, err := chunk.Compress(vol, co)
	if err != nil {
		return nil, nil, err
	}
	return stream, statsFrom(cs), nil
}

// CompressAdaptive compresses data under the point-wise tolerance tol,
// letting every chunk pick the cheapest coding backend for its content:
// a fast profile (sampled variance plus a roughness estimate) gates a
// trial encode of each candidate on a small sub-block, and the chunk is
// coded by whichever backend won. The output is a container-v3 stream
// whose chunks record their codec; it decodes with Decompress like any
// other stream. Every reconstructed value is within tol of the original
// regardless of the backend chosen. opts may be nil for defaults;
// Options.Codec is ignored (selection owns the choice).
func CompressAdaptive(data []float64, dims [3]int, tol float64, opts *Options) ([]byte, *Stats, error) {
	if !(tol > 0) {
		return nil, nil, errors.New("sperr: tolerance must be positive")
	}
	vol, err := makeVolume(data, dims)
	if err != nil {
		return nil, nil, err
	}
	co := opts.chunkOpts(codec.Params{Mode: codec.ModeAdaptive, Tol: tol})
	stream, cs, err := chunk.Compress(vol, co)
	if err != nil {
		return nil, nil, err
	}
	return stream, statsFrom(cs), nil
}

// Decompress reconstructs a volume compressed by CompressPWE or
// CompressBPP. It returns the data in row-major order and its extent.
func Decompress(stream []byte) ([]float64, [3]int, error) {
	return DecompressWorkers(stream, 0)
}

// DecompressWorkers is Decompress with an explicit worker budget (<= 0
// means GOMAXPROCS): up to workers chunks decode concurrently, each on
// one goroutine, so workers beyond the chunk count idle. The output is
// identical at every count.
func DecompressWorkers(stream []byte, workers int) ([]float64, [3]int, error) {
	vol, err := chunk.Decompress(stream, workers)
	if err != nil {
		return nil, [3]int{}, err
	}
	return vol.Data, [3]int{vol.Dims.NX, vol.Dims.NY, vol.Dims.NZ}, nil
}

// CompressRMSE compresses data so that the root-mean-square error of the
// reconstruction is (approximately, and in practice conservatively) at
// most targetRMSE. This is the average-error-targeted mode the paper's
// Section VII describes as enabled by the near-orthogonality of the
// scaled CDF 9/7 basis: the encoder estimates the reconstruction error in
// the coefficient domain and truncates the embedded stream at the first
// bitplane boundary that meets the target. No point-wise bound.
func CompressRMSE(data []float64, dims [3]int, targetRMSE float64, opts *Options) ([]byte, *Stats, error) {
	if !(targetRMSE > 0) {
		return nil, nil, errors.New("sperr: targetRMSE must be positive")
	}
	vol, err := makeVolume(data, dims)
	if err != nil {
		return nil, nil, err
	}
	co := opts.chunkOpts(codec.Params{Mode: codec.ModeRMSE, TargetRMSE: targetRMSE})
	stream, cs, err := chunk.Compress(vol, co)
	if err != nil {
		return nil, nil, err
	}
	return stream, statsFrom(cs), nil
}

// CompressPSNR compresses data to a target peak-signal-to-noise ratio in
// dB, with the peak taken as the data range (the convention of the
// paper's evaluation). It is a convenience wrapper over CompressRMSE.
func CompressPSNR(data []float64, dims [3]int, psnrDB float64, opts *Options) ([]byte, *Stats, error) {
	if !(psnrDB > 0) {
		return nil, nil, errors.New("sperr: psnrDB must be positive")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	rng := hi - lo
	if !(rng > 0) {
		rng = 1
	}
	return CompressRMSE(data, dims, rng/math.Pow(10, psnrDB/20), opts)
}

// DecompressPartial reconstructs a volume using only a fraction
// (0 < fraction <= 1) of each chunk's embedded SPECK bits. SPECK
// bitstreams are embedded — any prefix decodes to a valid, coarser
// reconstruction — which makes SPERR streams usable for progressive and
// streaming access (paper Section VII): transmit a prefix, render a
// preview, refine later. Outlier corrections (and hence the PWE guarantee)
// apply only at fraction = 1.
func DecompressPartial(stream []byte, fraction float64) ([]float64, [3]int, error) {
	vol, err := chunk.DecompressPartial(stream, fraction, 0)
	if err != nil {
		return nil, [3]int{}, err
	}
	return vol.Data, [3]int{vol.Dims.NX, vol.Dims.NY, vol.Dims.NZ}, nil
}

// DecompressLowRes reconstructs a coarsened (multi-resolution) version of
// the volume by leaving the finest `drop` wavelet decomposition levels
// folded: each chunk axis is ceil-halved once per dropped level. Wavelet
// hierarchies are self-similar — each coarsened level resembles the
// full-resolution data — which the paper's Section VII highlights for
// explorative analysis. drop = 0 decodes at full resolution (without
// outlier corrections). Returns the coarse data and its extent.
func DecompressLowRes(stream []byte, drop int) ([]float64, [3]int, error) {
	vol, err := chunk.DecompressLowRes(stream, drop, 0)
	if err != nil {
		return nil, [3]int{}, err
	}
	return vol.Data, [3]int{vol.Dims.NX, vol.Dims.NY, vol.Dims.NZ}, nil
}

// DecompressRegion reconstructs only the box of extent dims anchored at
// origin, decoding just the chunks that intersect it — the random-access
// pattern of the community archives that motivate the paper (Section I):
// a reader of a large stored volume pays only for the chunks its cutout
// touches. The reconstruction carries the same guarantees as Decompress.
func DecompressRegion(stream []byte, origin, dims [3]int) ([]float64, error) {
	return DecompressRegionWorkers(stream, origin, dims, 0)
}

// DecompressRegionWorkers is DecompressRegion with an explicit worker
// budget for the intersecting-chunk decodes (<= 0 means GOMAXPROCS).
func DecompressRegionWorkers(stream []byte, origin, dims [3]int, workers int) ([]float64, error) {
	vol, err := chunk.DecompressRegion(stream, origin[0], origin[1], origin[2],
		grid.Dims{NX: dims[0], NY: dims[1], NZ: dims[2]}, workers)
	if err != nil {
		return nil, err
	}
	return vol.Data, nil
}

// StreamInfo summarizes a compressed stream without decoding its data.
type StreamInfo struct {
	// Version is the container format version (1, 2, or 3).
	Version int
	// Dims is the volume extent; ChunkDims the chunk tiling.
	Dims, ChunkDims [3]int
	// NumChunks is the number of independently coded chunks.
	NumChunks int
	// CompressedBytes is the container size.
	CompressedBytes int
	// FrameBytes is each chunk frame's payload size, in container order.
	FrameBytes []int
	// Mode is "pwe", "bpp", "rmse" or "adaptive" (all chunks of one
	// container share a mode).
	Mode string
	// CodecCounts maps backend name to the number of chunks it coded,
	// from the v3 footer's codec map (pre-v3 streams are all "sperr").
	// Always non-nil.
	CodecCounts map[string]int
	// Tolerance is the point-wise error bound in PWE mode (0 otherwise).
	Tolerance float64
	// SpeckBits and OutlierBits total the embedded stream sizes across
	// chunks (pre-lossless).
	SpeckBits, OutlierBits uint64
	// Chunks gives each chunk's box in container order — the tiling a
	// random-access reader (or a chunk-granularity cache) needs to map a
	// cutout onto frames without decoding anything.
	Chunks []ChunkBox
}

// ChunkBox is one chunk's extent in volume coordinates, plus the backend
// that coded it.
type ChunkBox struct {
	Origin [3]int
	Dims   [3]int
	// Codec names the chunk's coding backend ("sperr" pre-v3).
	Codec string
}

// Describe inspects a compressed stream — volume geometry, mode,
// tolerance, per-coder bit budgets, frame sizes — without reconstructing
// data. On container v2 it reads only the fixed header and the index
// footer; on v1 it parses each chunk's header through a bounded prefix
// inflate. Cost is independent of the data volume either way.
func Describe(stream []byte) (*StreamInfo, error) {
	info, err := chunk.Describe(stream)
	if err != nil {
		return nil, err
	}
	out := &StreamInfo{
		Version:         info.Version,
		Dims:            [3]int{info.VolumeDims.NX, info.VolumeDims.NY, info.VolumeDims.NZ},
		ChunkDims:       [3]int{info.ChunkDims.NX, info.ChunkDims.NY, info.ChunkDims.NZ},
		NumChunks:       info.NumChunks,
		CompressedBytes: info.TotalBytes,
		FrameBytes:      make([]int, 0, len(info.Chunks)),
		SpeckBits:       info.SpeckBits,
		OutlierBits:     info.OutlierBits,
		CodecCounts:     info.CodecCounts,
	}
	switch info.Mode {
	case codec.ModePWE:
		out.Mode = "pwe"
		out.Tolerance = info.Tol
	case codec.ModeBPP:
		out.Mode = "bpp"
	case codec.ModeRMSE:
		out.Mode = "rmse"
	case codec.ModeAdaptive:
		out.Mode = "adaptive"
		out.Tolerance = info.Tol
	}
	for _, c := range info.Chunks {
		out.FrameBytes = append(out.FrameBytes, c.CompressedBytes)
		out.Chunks = append(out.Chunks, ChunkBox{
			Origin: c.Origin,
			Dims:   [3]int{c.Dims.NX, c.Dims.NY, c.Dims.NZ},
			Codec:  c.Codec.String(),
		})
	}
	return out, nil
}

// CompressPWEFloat32 is CompressPWE for single-precision input. The
// tolerance applies to the float64 promotion of the data.
func CompressPWEFloat32(data []float32, dims [3]int, tol float64, opts *Options) ([]byte, *Stats, error) {
	return CompressPWE(widen(data), dims, tol, opts)
}

// CompressBPPFloat32 is CompressBPP for single-precision input.
func CompressBPPFloat32(data []float32, dims [3]int, bitsPerPoint float64, opts *Options) ([]byte, *Stats, error) {
	return CompressBPP(widen(data), dims, bitsPerPoint, opts)
}

// DecompressFloat32 reconstructs to single precision.
func DecompressFloat32(stream []byte) ([]float32, [3]int, error) {
	return DecompressFloat32Workers(stream, 0)
}

// DecompressFloat32Workers is DecompressFloat32 with an explicit worker
// budget (<= 0 means GOMAXPROCS) — the float32 twin of DecompressWorkers.
// Chunks decode in parallel and narrow to float32 on the worker
// goroutines as they complete, so the float64 intermediate is bounded by
// the in-flight chunk set, never the volume.
func DecompressFloat32Workers(stream []byte, workers int) ([]float32, [3]int, error) {
	dec, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return nil, [3]int{}, err
	}
	dec.SetWorkers(workers)
	dims := dec.Dims()
	out := make([]float32, dims[0]*dims[1]*dims[2])
	err = dec.ForEachChunk(func(ch DecodedChunk) error {
		// Chunks are disjoint, so concurrent narrowing scatters write
		// disjoint regions of out.
		nx, ny := ch.Dims[0], ch.Dims[1]
		for z := 0; z < ch.Dims[2]; z++ {
			for y := 0; y < ny; y++ {
				src := ch.Data[(z*ny+y)*nx : (z*ny+y+1)*nx]
				off := ((ch.Origin[2]+z)*dims[1]+ch.Origin[1]+y)*dims[0] + ch.Origin[0]
				for x, v := range src {
					out[off+x] = float32(v)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, [3]int{}, err
	}
	return out, dims, nil
}

func widen(data []float32) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = float64(v)
	}
	return out
}

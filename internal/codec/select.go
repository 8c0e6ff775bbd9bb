// Per-chunk adaptive codec selection (ModeAdaptive). Following Tao et
// al.'s online SZ-vs-ZFP selection result, each chunk is profiled with a
// cheap sampled analyzer and the candidate backends are trial-scored on a
// small sub-block at the chunk's tolerance; the winner codes the chunk and
// is recorded in the container-v3 frame tag. Selection is a pure function
// of (chunk data, params): the same volume yields the same byte stream at
// every worker count.

package codec

import (
	"errors"
	"fmt"

	"sperr/internal/grid"
)

// ChunkProfile is the sampled analyzer's summary of one chunk. It costs
// O(profileTarget) regardless of chunk size — around 100x cheaper than an
// encode at the paper's 256^3 tiling — and feeds the selection shortcut
// plus instrumentation.
type ChunkProfile struct {
	// Samples is the number of points inspected.
	Samples int
	// Mean and Variance summarize the sampled amplitude distribution.
	Mean, Variance float64
	// Roughness is the mean-square first difference of adjacent sampled
	// point pairs normalized by twice the variance: near 0 for smooth
	// fields (spectral energy concentrated at low frequency), near 1 for
	// white noise, above 1 for oscillatory data. A cheap spectral-slope
	// proxy: for a field with power spectrum ~k^-beta, this ratio is
	// 1 - rho(1), the lag-one autocorrelation complement.
	Roughness float64
	// Constant reports that every sampled value was identical.
	Constant bool
}

// profileTarget is the analyzer's sample budget per chunk.
const profileTarget = 2048

// ProfileChunk samples data on a fixed stride and returns its profile.
// Deterministic: the same data always yields the same profile.
func ProfileChunk(data []float64, dims grid.Dims) ChunkProfile {
	n := len(data)
	stride := n / profileTarget
	if stride < 1 {
		stride = 1
	}
	var p ChunkProfile
	var mean, m2 float64
	var sumd2 float64
	pairs := 0
	for i := 0; i < n; i += stride {
		v := data[i]
		p.Samples++
		delta := v - mean
		mean += delta / float64(p.Samples)
		m2 += delta * (v - mean)
		if i+1 < n {
			d := data[i+1] - v
			sumd2 += d * d
			pairs++
		}
	}
	p.Mean = mean
	if p.Samples > 0 {
		p.Variance = m2 / float64(p.Samples)
	}
	p.Constant = p.Variance == 0
	if pairs > 0 && p.Variance > 0 {
		p.Roughness = sumd2 / float64(pairs) / (2 * p.Variance)
	}
	return p
}

// trialEdge caps the trial sub-block extent per axis: 32^3 keeps the five
// trial encodes near 1% of a 256^3 chunk encode while still spanning
// several wavelet/interpolation levels.
const trialEdge = 32

// trialBlock returns a centered contiguous sub-block of at most trialEdge
// per axis, and whether it is the whole chunk (in which case the winning
// trial stream is reused verbatim).
func trialBlock(data []float64, dims grid.Dims) ([]float64, grid.Dims, bool) {
	sd := grid.Dims{NX: dims.NX, NY: dims.NY, NZ: dims.NZ}
	if sd.NX > trialEdge {
		sd.NX = trialEdge
	}
	if sd.NY > trialEdge {
		sd.NY = trialEdge
	}
	if sd.NZ > trialEdge {
		sd.NZ = trialEdge
	}
	if sd == dims {
		return data, dims, true
	}
	x0 := (dims.NX - sd.NX) / 2
	y0 := (dims.NY - sd.NY) / 2
	z0 := (dims.NZ - sd.NZ) / 2
	sub := make([]float64, sd.Len())
	for z := 0; z < sd.NZ; z++ {
		for y := 0; y < sd.NY; y++ {
			src := dims.Index(x0, y0+y, z0+z)
			dst := sd.Index(0, y, z)
			copy(sub[dst:dst+sd.NX], data[src:src+sd.NX])
		}
	}
	return sub, sd, false
}

// trialParams maps the adaptive Params onto one candidate backend: every
// candidate runs ModePWE at the same tolerance; SPERR-specific knobs pass
// through to the SPERR candidate only.
func trialParams(id CodecID, p Params) Params {
	q := Params{Mode: ModePWE, Tol: p.Tol}
	if id == CodecSPERR {
		q.QFactor = p.QFactor
		q.Q = p.Q
		q.DisableLossless = p.DisableLossless
	}
	return q
}

// EncodeAdaptive compresses one chunk under ModeAdaptive: profile, trial-
// score every backend on a sub-block at the same PWE tolerance, code the
// chunk with the smallest candidate, and report which backend won. Ties
// break to the lowest CodecID; when the trial block is the whole chunk the
// winning trial bytes are returned directly, so the choice is exactly the
// per-chunk minimum.
func EncodeAdaptive(data []float64, dims grid.Dims, p Params, s *Scratch) (CodecID, []byte, *Stats, error) {
	if len(data) != dims.Len() {
		return 0, nil, nil, fmt.Errorf("%w: %d values for %v", ErrDims, len(data), dims)
	}
	if p.Mode != ModeAdaptive {
		return 0, nil, nil, fmt.Errorf("codec: EncodeAdaptive requires ModeAdaptive, got mode %d", p.Mode)
	}
	if err := p.Validate(); err != nil {
		return 0, nil, nil, err
	}
	if err := checkChunk(data, p); err != nil {
		return 0, nil, nil, err
	}
	prof := ProfileChunk(data, dims)
	if prof.Constant {
		// Constant (as sampled) chunks: every backend codes these in a few
		// bytes; skip the trials and keep the default backend.
		out, st, err := EncodeChunkScratch(data, dims, trialParams(CodecSPERR, p), s)
		return CodecSPERR, out, st, err
	}
	sub, subDims, exact := trialBlock(data, dims)
	var winner Backend
	var winStream []byte
	var winStats *Stats
	for _, b := range backends {
		stream, st, err := b.Encode(sub, subDims, trialParams(b.ID(), p), s)
		if err != nil {
			continue
		}
		if winner == nil || len(stream) < len(winStream) {
			winner, winStream, winStats = b, stream, st
		}
	}
	if winner == nil {
		return 0, nil, nil, errors.New("codec: adaptive selection: no backend could code the chunk")
	}
	if exact {
		winStats.Codec = winner.ID()
		return winner.ID(), winStream, winStats, nil
	}
	out, st, err := winner.Encode(data, dims, trialParams(winner.ID(), p), s)
	if err != nil {
		return 0, nil, nil, err
	}
	st.Codec = winner.ID()
	return winner.ID(), out, st, nil
}

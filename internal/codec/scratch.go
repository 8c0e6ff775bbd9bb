package codec

import (
	"math"

	"sperr/internal/grid"
	"sperr/internal/outlier"
	"sperr/internal/speck"
	"sperr/internal/wavelet"
)

// Scratch is the per-worker arena of the chunk pipeline: every temporary
// the four stages need — the coefficient slab, the transform plan and its
// line buffers, the SPECK coder state, the outlier list and coder state,
// and the payload assembly buffer — lives here and is reused across
// chunks. A worker that compresses or decompresses many chunks reaches a
// steady state in which a chunk costs no heap allocation beyond its output
// stream.
//
// The zero value is ready to use; nil is accepted everywhere and means
// "fresh buffers for this call only" (the unpooled path). A Scratch is not
// safe for concurrent use — give each worker goroutine its own, e.g. via
// sync.Pool. Slices returned by the *Scratch functions alias the arena and
// are valid only until its next use.
type Scratch struct {
	coeffsBuf []float64
	plan      *wavelet.Plan
	wav       wavelet.Scratch
	speck     speck.Scratch
	outl      outlier.Scratch
	outs      []outlier.Outlier
	payload   []byte
	grows     int
}

// NewScratch returns an empty arena. Buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// coeffs returns the pooled coefficient slab, grown to n values.
func (s *Scratch) coeffs(n int) []float64 {
	if cap(s.coeffsBuf) < n {
		s.coeffsBuf = make([]float64, n)
		s.grows++
	}
	return s.coeffsBuf[:n]
}

// planFor returns a transform plan for dims, cached across calls: chunked
// volumes present long runs of identically-shaped chunks, so the plan of
// the previous chunk almost always fits the next.
func (s *Scratch) planFor(dims grid.Dims) *wavelet.Plan {
	if s.plan == nil || s.plan.Dims() != dims {
		s.plan = wavelet.NewPlan(dims)
		s.grows++
	}
	return s.plan
}

// scanOutliers compares data against recon and collects every point whose
// error exceeds tol. The returned slice aliases the arena.
func (s *Scratch) scanOutliers(data, recon []float64, tol float64) []outlier.Outlier {
	outs := s.outs[:0]
	for i := range data {
		if diff := data[i] - recon[i]; math.Abs(diff) > tol {
			outs = append(outs, outlier.Outlier{Pos: i, Corr: diff})
		}
	}
	s.outs = outs
	return outs
}

// Grows reports the cumulative number of buffer (re)allocation events
// across every pooled buffer in the arena — the pipeline's allocation
// counter. A warmed-up arena stops growing; instrumentation surfaces the
// per-chunk delta.
func (s *Scratch) Grows() int {
	if s == nil {
		return 0
	}
	return s.grows + s.wav.Grows + s.speck.Grows + s.outl.Grows
}

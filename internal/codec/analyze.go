package codec

import (
	"math"

	"sperr/internal/grid"
	"sperr/internal/outlier"
	"sperr/internal/speck"
	"sperr/internal/wavelet"
)

// Analysis exposes the intermediate products of the SPERR pipeline for the
// paper's design-space experiments (Figures 1, 2, 4, 11): the outlier list
// that the coefficient coding at step q leaves behind, and the exact bit
// costs of both coders.
type Analysis struct {
	Outliers    []outlier.Outlier
	SpeckBits   uint64
	OutlierBits uint64
	NumPoints   int
}

// OutlierPercent returns outliers as a percentage of all points.
func (a *Analysis) OutlierPercent() float64 {
	if a.NumPoints == 0 {
		return 0
	}
	return 100 * float64(len(a.Outliers)) / float64(a.NumPoints)
}

// BitsPerOutlier returns the amortized outlier coding cost.
func (a *Analysis) BitsPerOutlier() float64 {
	if len(a.Outliers) == 0 {
		return 0
	}
	return float64(a.OutlierBits) / float64(len(a.Outliers))
}

// Analyze runs the SPERR pipeline on one chunk at tolerance tol with SPECK
// step q (pass q = 0 for the 1.5*tol default) and returns the outlier list
// and per-coder bit costs without assembling an output stream.
func Analyze(data []float64, dims grid.Dims, tol, q float64) (*Analysis, error) {
	if len(data) != dims.Len() {
		return nil, ErrDims
	}
	if q <= 0 {
		q = DefaultQFactor * tol
	}
	coeffs := make([]float64, len(data))
	copy(coeffs, data)
	plan := wavelet.NewPlan(dims)
	plan.Forward(coeffs)
	sres := speck.Encode(coeffs, dims, q, 0)
	recon := speck.Decode(sres.Stream, sres.Bits, dims, sres.Q, sres.NumPlanes)
	plan.Inverse(recon)
	var outs []outlier.Outlier
	for i := range data {
		if diff := data[i] - recon[i]; math.Abs(diff) > tol {
			outs = append(outs, outlier.Outlier{Pos: i, Corr: diff})
		}
	}
	ores := outlier.Encode(dims.Len(), tol, outs)
	return &Analysis{
		Outliers:    outs,
		SpeckBits:   sres.Bits,
		OutlierBits: ores.Bits,
		NumPoints:   dims.Len(),
	}, nil
}

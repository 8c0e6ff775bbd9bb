package experiments

import (
	"fmt"
	"math"

	"sperr/internal/bitgroom"
	"sperr/internal/codec"
	"sperr/internal/metrics"
	"sperr/internal/outlier"
	"sperr/internal/sz"
)

// This file holds ablation experiments for the design choices DESIGN.md
// calls out, beyond the sweeps the paper itself plots (q is swept by
// Figures 2-4, chunk size by Figure 5):
//
//	abl-lossless : the final lossless stage (paper Section V uses ZSTD)
//	abl-outlier  : the SPECK-inspired outlier coder vs the naive schemes
//	               Section II dismisses (CSR, bitmap) and SZ's quant bins
//	abl-predictor: the SZ3 interpolation predictor vs SZ2's Lorenzo
//	               (why the paper benchmarks SZ3, not SZ2)

// AblationLossless measures how much the final DEFLATE stage contributes
// to SPERR's rate at the Table II settings.
func AblationLossless(cfg Config) *Result {
	r := &Result{
		ID:     "abl-lossless",
		Title:  "ablation: final lossless stage on/off",
		Header: []string{"case", "BPP with", "BPP without", "saving %"},
		Notes: []string{
			"the SPECK and outlier bitstreams are already dense, so the lossless stage " +
				"typically saves only a few percent — the paper applies ZSTD for the same residual win",
		},
	}
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		st, _ := encodePWE(f.vol.Data, f.vol.Dims, tol, 0)
		// Without the lossless stage a chunk would be a one-byte marker,
		// the header and the two coders' byte-padded streams.
		without := 1 + st.HeaderBits/8 + (st.SpeckBits+7)/8 + (st.OutlierBits+7)/8
		n := float64(f.vol.Dims.Len())
		bw := float64(st.TotalBytes*8) / n
		bo := float64(without*8) / n
		r.AddRow(e.abbrev, f3(bw), f3(bo), f2(100*(bo-bw)/bo))
	}
	return r
}

// AblationOutlierCoder compares four ways to store the same outlier list:
// SPERR's SPECK-inspired coder, SZ's Huffman-coded quantization bins, and
// the two naive schemes of Section II (explicit CSR-style positions and a
// dense position bitmap).
func AblationOutlierCoder(cfg Config) *Result {
	r := &Result{
		ID:     "abl-outlier",
		Title:  "ablation: outlier storage schemes (bits per outlier)",
		Header: []string{"case", "outliers", "SPERR", "SZ bins", "gamma", "CSR", "bitmap"},
		Notes: []string{
			"Section II: CSR and bitmap coding are far from optimal; the unified " +
				"SPECK-inspired coder does positions and values together",
			"gamma = Elias-coded gaps+values (reference [31]); competitive on rate but " +
				"delivers only half the correction precision (2t bins vs the SPECK coder's t/2)",
		},
	}
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		st, outs := encodePWE(f.vol.Data, f.vol.Dims, tol, 0)
		k := len(outs)
		if k == 0 {
			r.AddRow(e.abbrev, "0", "-", "-", "-", "-")
			continue
		}
		n := f.vol.Dims.Len()
		bins := sz.QuantizeOutliers(n, tol, outs)
		szBits := float64(len(sz.CompressQuantBins(bins)) * 8)
		gammaBits := float64(len(outlier.EncodeGamma(n, tol, outs)) * 8)
		csrBits := float64(len(outlier.EncodeCSR(n, tol, outs)) * 8)
		bmpBits := float64(len(outlier.EncodeBitmap(n, tol, outs)) * 8)
		r.AddRow(e.abbrev, fmt.Sprintf("%d", k),
			f2(st.BitsPerOutlier()), f2(szBits/float64(k)), f2(gammaBits/float64(k)),
			f2(csrBits/float64(k)), f2(bmpBits/float64(k)))
	}
	return r
}

// AblationBitGroom pits SPERR against bit grooming (the paper's reference
// [1]), the no-transform precision-trimming floor baseline, at matched
// point-wise tolerances: grooming keeps enough mantissa bits that its
// worst-case absolute error on the field stays below t.
func AblationBitGroom(cfg Config) *Result {
	r := &Result{
		ID:     "abl-bitgroom",
		Title:  "ablation: SPERR vs bit grooming at matched PWE tolerance",
		Header: []string{"case", "SPERR BPP", "bitgroom BPP", "groom maxErr/t"},
		Notes: []string{
			"bit grooming is cheap but transform-free: it pays dearly at tight " +
				"absolute tolerances, which is why purpose-built compressors exist (Sections I-II)",
		},
	}
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		n := float64(f.vol.Dims.Len())
		sperrStream, _, err := codec.EncodeChunk(f.vol.Data, f.vol.Dims,
			codec.Params{Mode: codec.ModePWE, Tol: tol})
		if err != nil {
			panic(err)
		}
		// Keep bits so that maxAbs * 2^-(keep-1) <= tol.
		maxAbs := 0.0
		for _, v := range f.vol.Data {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		keep := int(math.Ceil(math.Log2(maxAbs/tol))) + 1
		if keep < 1 {
			keep = 1
		}
		if keep > 52 {
			keep = 52
		}
		gStream, err := bitgroom.Compress(f.vol.Data, bitgroom.Params{KeepBits: keep})
		if err != nil {
			panic(err)
		}
		gRec, err := bitgroom.Decompress(gStream)
		if err != nil {
			panic(err)
		}
		gErr := metrics.MaxErr(f.vol.Data, gRec)
		r.AddRow(e.abbrev,
			f3(float64(len(sperrStream)*8)/n),
			f3(float64(len(gStream)*8)/n),
			f2(gErr/tol))
	}
	return r
}

// AblationPredictor compares the SZ baseline's two predictors at the
// Table II settings, reproducing why SZ3's interpolation superseded SZ2's
// Lorenzo stencil.
func AblationPredictor(cfg Config) *Result {
	r := &Result{
		ID:     "abl-predictor",
		Title:  "ablation: SZ interpolation (SZ3) vs Lorenzo (SZ2) predictor",
		Header: []string{"case", "interp BPP", "lorenzo BPP"},
	}
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		n := float64(f.vol.Dims.Len())
		si, err := sz.Compress(f.vol.Data, f.vol.Dims,
			sz.Params{Tol: tol, Predictor: sz.PredictorInterpolation})
		if err != nil {
			panic(err)
		}
		sl, err := sz.Compress(f.vol.Data, f.vol.Dims,
			sz.Params{Tol: tol, Predictor: sz.PredictorLorenzo})
		if err != nil {
			panic(err)
		}
		r.AddRow(e.abbrev, f3(float64(len(si)*8)/n), f3(float64(len(sl)*8)/n))
	}
	return r
}

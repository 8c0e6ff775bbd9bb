package experiments

import (
	"fmt"
	"math"
	"time"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/metrics"
	"sperr/internal/mgard"
	"sperr/internal/sz"
	"sperr/internal/tthresh"
	"sperr/internal/zfp"
)

// compressorResult is one (compressor, setting) measurement.
type compressorResult struct {
	bpp    float64
	psnr   float64
	gain   float64
	maxErr float64
	t      time.Duration
	err    error
}

// runCompressor executes one of the five compressors at tolerance tol
// (TTHRESH receives the idx-equivalent PSNR target instead, as in the
// paper).
func runCompressor(name string, f field, tol float64, idx int, workers int) compressorResult {
	d := f.vol.Dims
	data := f.vol.Data
	var stream []byte
	var rec []float64
	var err error
	start := time.Now()
	switch name {
	case "SPERR":
		var s []byte
		s, _, err = chunk.Compress(f.vol, chunk.Options{
			Params:  codec.Params{Mode: codec.ModePWE, Tol: tol},
			Workers: workers,
		})
		if err == nil {
			stream = s
			var v *grid.Volume
			v, err = chunk.Decompress(s, workers)
			if err == nil {
				rec = v.Data
			}
		}
	case "SZ3":
		stream, err = sz.Compress(data, d, sz.Params{Tol: tol})
		if err == nil {
			rec, _, err = sz.Decompress(stream)
		}
	case "ZFP":
		stream, err = zfp.Compress(data, d, zfp.Params{Mode: zfp.ModeFixedAccuracy, Tol: tol})
		if err == nil {
			rec, _, err = zfp.Decompress(stream)
		}
	case "MGARD":
		stream, err = mgard.Compress(data, d, mgard.Params{Tol: tol})
		if err == nil {
			rec, _, err = mgard.Decompress(stream)
		}
	case "TTHRESH":
		psnr := 20 * math.Log10(2) * float64(idx)
		stream, err = tthresh.Compress(data, d, tthresh.Params{TargetPSNR: psnr})
		if err == nil {
			rec, _, err = tthresh.Decompress(stream)
		}
	default:
		err = fmt.Errorf("unknown compressor %q", name)
	}
	elapsed := time.Since(start)
	if err != nil {
		return compressorResult{err: err}
	}
	bpp := metrics.BPP(len(stream), d.Len())
	return compressorResult{
		bpp:    bpp,
		psnr:   metrics.PSNR(data, rec),
		gain:   metrics.AccuracyGain(data, rec, bpp),
		maxErr: metrics.MaxErr(data, rec),
		t:      elapsed,
	}
}

// Figure8 reproduces Figure 8: rate-distortion curves (accuracy gain vs
// bitrate) for the five compressors across the nine Table II fields, over
// an idx sweep from coarse tolerances toward machine epsilon.
func Figure8(cfg Config) *Result {
	r := &Result{
		ID:     "fig8",
		Title:  "rate-distortion: accuracy gain vs BPP, five compressors, nine fields",
		Header: []string{"field", "idx", "compressor", "BPP", "gain", "PSNR dB", "maxErr/t"},
		Notes: []string{
			"SPERR should lead at mid-to-high rates (> 2 BPP) and stay competitive at low rates (paper Fig. 8)",
			"maxErr/t > 1 marks a violated point-wise tolerance (TTHRESH gives no PWE guarantee)",
		},
	}
	fields := []string{
		"S3D CH4", "S3D Temperature", "S3D X Velocity",
		"Miranda Pressure", "Miranda Viscosity", "Miranda X Velocity",
		"QMCPACK", "Nyx Dark Matter Density", "Nyx X Velocity",
	}
	single := map[string]bool{
		"QMCPACK": true, "Nyx Dark Matter Density": true, "Nyx X Velocity": true,
	}
	idxsDouble := []int{5, 10, 15, 20, 25, 30, 35, 40}
	idxsSingle := []int{5, 10, 15, 20, 25}
	if cfg.Quick {
		fields = []string{"Miranda Viscosity", "Nyx X Velocity"}
		idxsDouble = []int{10, 20}
		idxsSingle = []int{10, 20}
	}
	compressors := []string{"SPERR", "SZ3", "ZFP", "MGARD", "TTHRESH"}
	for _, name := range fields {
		f := fieldByName(name, cfg.dims(), cfg.seed())
		idxs := idxsDouble
		if single[name] {
			idxs = idxsSingle
		}
		for _, idx := range idxs {
			tol := f.tol(idx)
			for _, comp := range compressors {
				if comp == "TTHRESH" && name == "QMCPACK" {
					// The paper reports TTHRESH could not finish QMCPACK.
					continue
				}
				res := runCompressor(comp, f, tol, idx, cfg.Workers)
				if res.err != nil {
					r.AddRow(name, fmt.Sprintf("%d", idx), comp, "-", "-", "-", "error")
					continue
				}
				r.AddRow(name, fmt.Sprintf("%d", idx), comp,
					f3(res.bpp), f2(res.gain), f2(res.psnr), f2(res.maxErr/tol))
			}
		}
	}
	return r
}

// figure9Entries returns the Table II subset used by Figures 9-11.
func figure9Entries(quick bool) []tabIIEntry {
	entries := tableIIEntries()
	if quick {
		return []tabIIEntry{entries[0], entries[8], entries[13]}
	}
	return entries
}

// Figure9 reproduces Figure 9: the bits each error-bounded compressor
// needs to satisfy a PWE tolerance (TTHRESH excluded: no error-bounded
// mode).
func Figure9(cfg Config) *Result {
	r := &Result{
		ID:     "fig9",
		Title:  "achieved bitrate at fixed PWE tolerance (lower is better)",
		Header: []string{"case", "SPERR BPP", "SZ3 BPP", "ZFP BPP", "MGARD BPP"},
		Notes: []string{
			"SPERR should need the fewest bits in all but a couple of cases (paper Fig. 9)",
			"the paper omits MGARD at idx=40 for exceeding the tolerance; our conservative reimplementation holds the bound and pays in rate instead (see EXPERIMENTS.md)",
		},
	}
	comps := []string{"SPERR", "SZ3", "ZFP", "MGARD"}
	var labels []string
	vals := make([][]float64, len(comps))
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		row := []string{e.abbrev}
		labels = append(labels, e.abbrev)
		for ci, comp := range comps {
			res := runCompressor(comp, f, tol, e.idx, cfg.Workers)
			if res.err != nil {
				row = append(row, "error")
				vals[ci] = append(vals[ci], 0)
				continue
			}
			cell := f3(res.bpp)
			if res.maxErr > tol*(1+1e-9) {
				cell += "!" // tolerance violated
			}
			row = append(row, cell)
			vals[ci] = append(vals[ci], res.bpp)
		}
		r.AddRow(row...)
	}
	for ci, comp := range comps {
		r.Bars = append(r.Bars, BarData{
			Title:  comp + " BPP at fixed tolerance",
			Labels: labels,
			Values: vals[ci],
		})
	}
	return r
}

// Figure10 reproduces Figure 10: compression wall time per compressor at
// the Table II settings, with four workers for the chunk-parallel SPERR
// (the baselines are serial in this reproduction; the paper runs all five
// under OpenMP with four threads).
func Figure10(cfg Config) *Result {
	r := &Result{
		ID:     "fig10",
		Title:  "compression time (ms)",
		Header: []string{"case", "SPERR", "SZ3", "ZFP", "MGARD", "TTHRESH"},
		Notes: []string{
			"expected ordering (paper Fig. 10): SZ3 ~ ZFP fastest, SPERR a few times slower, TTHRESH slowest",
		},
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 4
	}
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		row := []string{e.abbrev}
		for _, comp := range []string{"SPERR", "SZ3", "ZFP", "MGARD", "TTHRESH"} {
			if comp == "TTHRESH" && e.field == "QMCPACK" {
				row = append(row, "-")
				continue
			}
			res := runCompressor(comp, f, tol, e.idx, workers)
			if res.err != nil {
				row = append(row, "error")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", float64(res.t.Microseconds())/1000))
		}
		r.AddRow(row...)
	}
	return r
}

// Figure11 reproduces Figure 11: outlier coding efficiency, SPERR's
// outlier coder vs SZ's quantization-bin scheme, fed the identical outlier
// list intercepted from SPERR's pipeline.
func Figure11(cfg Config) *Result {
	r := &Result{
		ID:     "fig11",
		Title:  "outlier coding cost: SPERR coder vs SZ quant-bin scheme (bits per outlier)",
		Header: []string{"case", "outliers", "SPERR b/o", "SZ b/o"},
		Notes: []string{
			"SPERR should use ~10 bits/outlier and beat SZ by 1-2 bits (paper Fig. 11)",
		},
	}
	var labels11 []string
	var sperrBPO, szBPOs []float64
	for _, e := range figure9Entries(cfg.Quick) {
		f := fieldByName(e.field, cfg.dims(), cfg.seed())
		tol := f.tol(e.idx)
		an, err := codec.Analyze(f.vol.Data, f.vol.Dims, tol, 0)
		if err != nil {
			panic(err)
		}
		if len(an.Outliers) == 0 {
			r.AddRow(e.abbrev, "0", "-", "-")
			continue
		}
		bins := sz.QuantizeOutliers(f.vol.Dims.Len(), tol, an.Outliers)
		szStream := sz.CompressQuantBins(bins)
		szBPO := float64(len(szStream)*8) / float64(len(an.Outliers))
		r.AddRow(e.abbrev, fmt.Sprintf("%d", len(an.Outliers)),
			f2(an.BitsPerOutlier()), f2(szBPO))
		labels11 = append(labels11, e.abbrev)
		sperrBPO = append(sperrBPO, an.BitsPerOutlier())
		szBPOs = append(szBPOs, szBPO)
	}
	r.Bars = []BarData{
		{Title: "SPERR bits/outlier", Labels: labels11, Values: sperrBPO},
		{Title: "SZ quant-bin bits/outlier", Labels: labels11, Values: szBPOs},
	}
	return r
}

// All runs every experiment at the given config, in paper order, followed
// by the ablations.
func All(cfg Config) []*Result {
	return []*Result{
		TableI(cfg), TableII(),
		Figure1(cfg), Figure2(cfg), Figure3(cfg), Figure4(cfg),
		Figure5(cfg), Figure6(cfg), Figure7(cfg),
		Figure8(cfg), Figure9(cfg), Figure10(cfg), Figure11(cfg),
		AblationLossless(cfg), AblationOutlierCoder(cfg), AblationPredictor(cfg),
		AblationBitGroom(cfg),
	}
}

// ByID returns the experiment driver for an experiment id, or nil.
func ByID(id string) func(Config) *Result {
	switch id {
	case "tab1":
		return TableI
	case "tab2":
		return func(Config) *Result { return TableII() }
	case "fig1":
		return Figure1
	case "fig2":
		return Figure2
	case "fig3":
		return Figure3
	case "fig4":
		return Figure4
	case "fig5":
		return Figure5
	case "fig6":
		return Figure6
	case "fig7":
		return Figure7
	case "fig8":
		return Figure8
	case "fig9":
		return Figure9
	case "fig10":
		return Figure10
	case "fig11":
		return Figure11
	case "abl-lossless":
		return AblationLossless
	case "abl-outlier":
		return AblationOutlierCoder
	case "abl-predictor":
		return AblationPredictor
	case "abl-bitgroom":
		return AblationBitGroom
	default:
		return nil
	}
}

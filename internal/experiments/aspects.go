package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sperr/internal/chunk"
	"sperr/internal/codec"
	"sperr/internal/grid"
	"sperr/internal/metrics"
	"sperr/internal/outlier"
	"sperr/internal/plot"
	"sperr/internal/synth"
)

// TableI reproduces Table I: translation of idx labels into actual PWE
// tolerances for a concrete field.
func TableI(cfg Config) *Result {
	f := fieldByName("Miranda Pressure", cfg.dims(), cfg.seed())
	rng := metrics.Range(f.vol.Data)
	r := &Result{
		ID:     "tab1",
		Title:  "idx -> PWE tolerance translation (field: Miranda Pressure)",
		Header: []string{"idx", "t = Range/2^idx", "understanding"},
		Notes:  []string{fmt.Sprintf("data range = %.6g", rng)},
	}
	understanding := map[int]string{
		10: "one thousandth of the data range",
		20: "one millionth of the data range",
		30: "one billionth of the data range",
		40: "one trillionth of the data range",
	}
	for _, idx := range []int{10, 20, 30, 40} {
		r.AddRow(fmt.Sprintf("%d", idx), g3(metrics.ToleranceForIdx(rng, idx)), understanding[idx])
	}
	return r
}

// TableII reproduces Table II: the field/level abbreviations used by
// Figures 9-11.
func TableII() *Result {
	r := &Result{
		ID:     "tab2",
		Title:  "abbreviations for data fields and compression levels",
		Header: []string{"abbrev", "field", "idx"},
	}
	for _, e := range tableIIEntries() {
		r.AddRow(e.abbrev, e.field, fmt.Sprintf("%d", e.idx))
	}
	return r
}

type tabIIEntry struct {
	abbrev string
	field  string
	idx    int
}

func tableIIEntries() []tabIIEntry {
	return []tabIIEntry{
		{"CH4-20", "S3D CH4", 20},
		{"CH4-40", "S3D CH4", 40},
		{"Temp-20", "S3D Temperature", 20},
		{"Temp-40", "S3D Temperature", 40},
		{"VX1-20", "S3D X Velocity", 20},
		{"VX1-40", "S3D X Velocity", 40},
		{"Press-20", "Miranda Pressure", 20},
		{"Press-40", "Miranda Pressure", 40},
		{"Visc-20", "Miranda Viscosity", 20},
		{"Visc-40", "Miranda Viscosity", 40},
		{"VX2-20", "Miranda X Velocity", 20},
		{"VX2-40", "Miranda X Velocity", 40},
		{"QMC-20", "QMCPACK", 20},
		{"Nyx-20", "Nyx Dark Matter Density", 20},
		{"VX3-20", "Nyx X Velocity", 20},
	}
}

// Figure1 reproduces Figure 1: outlier positions carry (almost) no spatial
// correlation. For the Lighthouse image at three q settings it reports the
// outlier percentage and a join-count clustering ratio: the probability
// that a 4-neighbor of an outlier is itself an outlier, divided by the
// outlier density. A ratio near 1 means random positions; strongly
// clustered phenomena (like wavelet coefficients) score far above 1.
func Figure1(cfg Config) *Result {
	d := grid.D2(256, 200)
	if cfg.Quick {
		d = grid.D2(128, 100)
	}
	img := synth.Lighthouse(d, cfg.seed())
	tol := metrics.ToleranceForIdx(metrics.Range(img.Data), 12)
	r := &Result{
		ID:     "fig1",
		Title:  "outlier spatial correlation on the Lighthouse image",
		Header: []string{"q/t", "outliers", "percent", "cluster-ratio"},
		Notes: []string{
			"cluster-ratio ~ 1 means outlier positions are spatially random (paper Fig. 1)",
		},
	}
	for _, qf := range []float64{1.3, 1.5, 1.7} {
		st, outs := encodePWE(img.Data, img.Dims, tol, qf)
		mask := outlierMask(outs, img.Dims)
		ratio := clusterRatio(mask, img.Dims)
		r.AddRow(f2(qf), fmt.Sprintf("%d", len(outs)),
			f3(st.OutlierPercent()), f2(ratio))
		r.Rasters = append(r.Rasters, plot.Raster(
			fmt.Sprintf("fig1: outlier positions at q = %.1ft (%.2f%%)", qf, st.OutlierPercent()),
			mask, d.NX, d.NY, 72, 20))
	}
	return r
}

// encodePWE codes one chunk with the production encoder at tolerance tol
// and step q = qf*tol (qf 0 is the default 1.5) and returns its stats and
// the outlier list the coefficient coding left behind.
func encodePWE(data []float64, d grid.Dims, tol, qf float64) (*codec.Stats, []outlier.Outlier) {
	s := codec.NewScratch()
	_, st, err := codec.EncodeChunkScratch(data, d, codec.Params{Mode: codec.ModePWE, Tol: tol, QFactor: qf}, s)
	if err != nil {
		panic(err)
	}
	return st, s.Outliers()
}

// outlierMask rasterizes the outlier list.
func outlierMask(outs []outlier.Outlier, d grid.Dims) []bool {
	mask := make([]bool, d.Len())
	for _, o := range outs {
		mask[o.Pos] = true
	}
	return mask
}

// clusterRatio returns P(neighbor of outlier is outlier) / P(outlier).
func clusterRatio(mask []bool, d grid.Dims) float64 {
	var outliers, adjacent, pairs int
	for y := 0; y < d.NY; y++ {
		for x := 0; x < d.NX; x++ {
			if !mask[d.Index(x, y, 0)] {
				continue
			}
			outliers++
			for _, n := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				if n[0] < 0 || n[0] >= d.NX || n[1] < 0 || n[1] >= d.NY {
					continue
				}
				pairs++
				if mask[d.Index(n[0], n[1], 0)] {
					adjacent++
				}
			}
		}
	}
	if outliers == 0 || pairs == 0 {
		return math.NaN()
	}
	density := float64(outliers) / float64(d.Len())
	return (float64(adjacent) / float64(pairs)) / density
}

// qSweep returns the q/t grid for Figures 2-4.
func qSweep(quick bool) []float64 {
	if quick {
		return []float64{1.0, 1.5, 2.0, 3.0}
	}
	return []float64{1.0, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 2.0, 2.25, 2.5, 2.75, 3.0}
}

// Figure2 reproduces Figure 2: total coding cost as a function of the
// quantization step q, broken into wavelet-coefficient cost and outlier
// cost, on Miranda Pressure at a tight tolerance.
func Figure2(cfg Config) *Result {
	f := fieldByName("Miranda Pressure", cfg.dims(), cfg.seed())
	idx := 40
	tol := f.tol(idx)
	r := &Result{
		ID:     "fig2",
		Title:  fmt.Sprintf("coding cost vs q on Miranda Pressure (idx=%d, t=%.3g)", idx, tol),
		Header: []string{"q/t", "coeff BPP", "outlier BPP", "total BPP", "outlier %"},
		Notes:  []string{"U-shaped total cost; sweet spot near q = 1.4t-1.8t (paper Fig. 2/3)"},
	}
	n := float64(f.vol.Dims.Len())
	var qs, totals []float64
	for _, qf := range qSweep(cfg.Quick) {
		st, _ := encodePWE(f.vol.Data, f.vol.Dims, tol, qf)
		cb := float64(st.SpeckBits) / n
		ob := float64(st.OutlierBits) / n
		r.AddRow(f2(qf), f3(cb), f3(ob), f3(cb+ob), f3(st.OutlierPercent()))
		qs = append(qs, qf)
		totals = append(totals, cb+ob)
	}
	// Chart only the total: its U-shaped valley spans a fraction of a BPP,
	// which the component curves would flatten out of view (the paper
	// likewise cuts its Figure 2 axis at 10 BPP).
	r.XLab, r.YLab = "q/t", "total BPP"
	r.Lines = []plot.Series{{Name: "total", X: qs, Y: totals}}
	return r
}

// Figure3 reproduces Figure 3: relative bitrate difference (top row) and
// PSNR difference (bottom row) as q sweeps, over four fields and multiple
// tolerance levels.
func Figure3(cfg Config) *Result {
	r := &Result{
		ID:     "fig3",
		Title:  "bitrate and PSNR differences vs q (relative to best observed)",
		Header: []string{"field", "idx", "q/t", "dBPP", "dPSNR(dB)"},
		Notes: []string{
			"dBPP: increase over the minimum-bitrate q (U-shape, paper Fig. 3 top)",
			"dPSNR: increase over the lowest-PSNR q (monotone decreasing, paper Fig. 3 bottom)",
		},
	}
	type fieldSpec struct {
		name string
		idxs []int
	}
	specs := []fieldSpec{
		{"Miranda Pressure", []int{20, 30, 40}},
		{"Miranda Viscosity", []int{20, 30, 40}},
		{"Nyx Dark Matter Density", []int{10, 20}},
		{"Nyx X Velocity", []int{10, 20}},
	}
	if cfg.Quick {
		specs = []fieldSpec{
			{"Miranda Viscosity", []int{20}},
			{"Nyx Dark Matter Density", []int{10}},
		}
	}
	qs := qSweep(cfg.Quick)
	for _, spec := range specs {
		f := fieldByName(spec.name, cfg.dims(), cfg.seed())
		for _, idx := range spec.idxs {
			tol := f.tol(idx)
			bpps := make([]float64, len(qs))
			psnrs := make([]float64, len(qs))
			for i, qf := range qs {
				stream, _, err := codec.EncodeChunk(f.vol.Data, f.vol.Dims,
					codec.Params{Mode: codec.ModePWE, Tol: tol, QFactor: qf})
				if err != nil {
					panic(err)
				}
				rec, err := codec.DecodeChunk(stream, f.vol.Dims)
				if err != nil {
					panic(err)
				}
				bpps[i] = metrics.BPP(len(stream), f.vol.Dims.Len())
				psnrs[i] = metrics.PSNR(f.vol.Data, rec)
			}
			minBPP, minPSNR := bpps[0], psnrs[0]
			for i := range qs {
				if bpps[i] < minBPP {
					minBPP = bpps[i]
				}
				if psnrs[i] < minPSNR {
					minPSNR = psnrs[i]
				}
			}
			for i, qf := range qs {
				r.AddRow(spec.name, fmt.Sprintf("%d", idx), f2(qf),
					f3(bpps[i]-minBPP), f2(psnrs[i]-minPSNR))
			}
		}
	}
	return r
}

// Figure4 reproduces Figure 4: outlier bitrate (bits per outlier) and
// outlier percentage at different q values.
func Figure4(cfg Config) *Result {
	r := &Result{
		ID:     "fig4",
		Title:  "outlier coding bitrate and outlier percentage vs q",
		Header: []string{"field", "q/t", "bits/outlier", "outlier %"},
		Notes:  []string{"bits/outlier ~ 10 at q = 1.5t, decreasing with density (paper Fig. 4)"},
	}
	cases := []struct {
		name string
		idx  int
	}{
		{"Miranda Viscosity", 20},
		{"Miranda Viscosity", 40},
		{"Nyx Dark Matter Density", 20},
		{"Nyx Dark Matter Density", 30},
	}
	if cfg.Quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		f := fieldByName(c.name, cfg.dims(), cfg.seed())
		tol := f.tol(c.idx)
		label := fmt.Sprintf("%s-%d", abbrevOf(c.name), c.idx)
		var qs, bpos []float64
		for _, qf := range qSweep(cfg.Quick) {
			st, _ := encodePWE(f.vol.Data, f.vol.Dims, tol, qf)
			bpo := st.BitsPerOutlier()
			r.AddRow(label, f2(qf), f2(bpo), f3(st.OutlierPercent()))
			qs = append(qs, qf)
			bpos = append(bpos, bpo)
		}
		r.Lines = append(r.Lines, plot.Series{Name: label, X: qs, Y: bpos})
	}
	r.XLab, r.YLab = "q/t", "bits/outlier"
	return r
}

func abbrevOf(field string) string {
	switch field {
	case "Miranda Viscosity":
		return "Visc"
	case "Miranda Pressure":
		return "Press"
	case "Nyx Dark Matter Density":
		return "Nyx"
	default:
		return field
	}
}

// Figure5 reproduces Figure 5: compression efficiency (accuracy gain) as a
// function of chunk size, on a Miranda density volume.
func Figure5(cfg Config) *Result {
	d := cfg.dims()
	f := fieldByName("Miranda Density", d, cfg.seed())
	sizes := []grid.Dims{
		grid.D3(d.NX/4, d.NY/4, d.NZ/4),
		grid.D3(d.NX/2, d.NY/2, d.NZ/2),
		d,
	}
	idxs := []int{10, 15, 20}
	if cfg.Quick {
		idxs = []int{10, 15}
	}
	r := &Result{
		ID:     "fig5",
		Title:  "accuracy-gain difference vs chunk size (Miranda density)",
		Header: []string{"idx", "chunk", "gain", "dGain vs best"},
		Notes:  []string{"bigger chunks -> higher gain, diminishing returns (paper Fig. 5)"},
	}
	for _, idx := range idxs {
		tol := f.tol(idx)
		gains := make([]float64, len(sizes))
		for i, cs := range sizes {
			stream, _, err := chunk.Compress(f.vol, chunk.Options{
				Params:    codec.Params{Mode: codec.ModePWE, Tol: tol},
				ChunkDims: cs,
				Workers:   cfg.Workers,
			})
			if err != nil {
				panic(err)
			}
			rec, err := chunk.Decompress(stream, cfg.Workers)
			if err != nil {
				panic(err)
			}
			bpp := metrics.BPP(len(stream), d.Len())
			gains[i] = metrics.AccuracyGain(f.vol.Data, rec.Data, bpp)
		}
		best := gains[0]
		for _, g := range gains {
			if g > best {
				best = g
			}
		}
		for i, cs := range sizes {
			r.AddRow(fmt.Sprintf("%d", idx), cs.String(), f2(gains[i]), f2(gains[i]-best))
		}
	}
	return r
}

// Figure6 reproduces Figure 6: execution-time breakdown of the four
// pipeline stages across tolerance levels, on Miranda Viscosity.
func Figure6(cfg Config) *Result {
	f := fieldByName("Miranda Viscosity", cfg.dims(), cfg.seed())
	idxs := []int{10, 20, 30, 40, 50}
	if cfg.Quick {
		idxs = []int{10, 30}
	}
	r := &Result{
		ID:     "fig6",
		Title:  "compression time breakdown (Miranda Viscosity, serial)",
		Header: []string{"idx", "transform ms", "speck ms", "locate ms", "outlier ms", "total ms"},
		Notes: []string{
			"SPECK time grows as the tolerance tightens; the other stages stay near-constant (paper Fig. 6)",
		},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	msF := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	var xs, tXf, tSp, tLoc, tOut []float64
	for _, idx := range idxs {
		tol := f.tol(idx)
		_, st, err := codec.EncodeChunk(f.vol.Data, f.vol.Dims,
			codec.Params{Mode: codec.ModePWE, Tol: tol})
		if err != nil {
			panic(err)
		}
		total := st.TransformTime + st.SpeckTime + st.LocateTime + st.OutlierTime
		r.AddRow(fmt.Sprintf("%d", idx), ms(st.TransformTime), ms(st.SpeckTime),
			ms(st.LocateTime), ms(st.OutlierTime), ms(total))
		xs = append(xs, float64(idx))
		tXf = append(tXf, msF(st.TransformTime))
		tSp = append(tSp, msF(st.SpeckTime))
		tLoc = append(tLoc, msF(st.LocateTime))
		tOut = append(tOut, msF(st.OutlierTime))
	}
	r.XLab, r.YLab = "idx", "ms"
	r.Lines = []plot.Series{
		{Name: "speck", X: xs, Y: tSp},
		{Name: "locate", X: xs, Y: tLoc},
		{Name: "transform", X: xs, Y: tXf},
		{Name: "outlier", X: xs, Y: tOut},
	}
	return r
}

// Figure7 reproduces Figure 7: strong scaling of the chunk-parallel
// compressor. The volume is split into enough chunks for multi-way
// parallelism and compressed with increasing worker counts.
func Figure7(cfg Config) *Result {
	d := cfg.dims()
	f := fieldByName("Miranda Density", d, cfg.seed())
	chunkDims := grid.D3(d.NX/4, d.NY/4, d.NZ/4) // 64 chunks
	maxWorkers := runtime.GOMAXPROCS(0)
	workers := []int{1}
	for w := 2; w <= maxWorkers && w <= 64; w *= 2 {
		workers = append(workers, w)
	}
	idxs := []int{10, 15, 20}
	if cfg.Quick {
		idxs = []int{10}
	}
	r := &Result{
		ID:     "fig7",
		Title:  fmt.Sprintf("strong scaling, %d chunks of %v (GOMAXPROCS=%d)", 64, chunkDims, maxWorkers),
		Header: []string{"idx", "workers", "time ms", "speedup"},
		Notes: []string{
			"speedup is capped by chunk count and available cores (paper Fig. 7)",
		},
	}
	for _, idx := range idxs {
		tol := f.tol(idx)
		var t1 float64
		for _, w := range workers {
			start := time.Now()
			_, _, err := chunk.Compress(f.vol, chunk.Options{
				Params:    codec.Params{Mode: codec.ModePWE, Tol: tol},
				ChunkDims: chunkDims,
				Workers:   w,
			})
			if err != nil {
				panic(err)
			}
			el := float64(time.Since(start).Microseconds()) / 1000
			if w == 1 {
				t1 = el
			}
			r.AddRow(fmt.Sprintf("%d", idx), fmt.Sprintf("%d", w),
				fmt.Sprintf("%.1f", el), f2(t1/el))
		}
	}
	return r
}

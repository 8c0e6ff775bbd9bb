package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"sperr/internal/grid"
)

// quickCfg keeps experiment tests fast.
func quickCfg() Config {
	return Config{Dims: grid.D3(24, 24, 24), Seed: 7, Quick: true}
}

func TestResultPrint(t *testing.T) {
	r := &Result{
		ID: "x", Title: "demo",
		Header: []string{"a", "bbb"},
		Notes:  []string{"a note"},
	}
	r.AddRow("1", "2")
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "bbb", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableI(t *testing.T) {
	r := TableI(quickCfg())
	if len(r.Rows) != 4 {
		t.Fatalf("Table I should have 4 rows, got %d", len(r.Rows))
	}
	// Tolerances must decrease by ~2^10 per row.
	prev := parseF(t, r.Rows[0][1])
	for _, row := range r.Rows[1:] {
		cur := parseF(t, row[1])
		ratio := prev / cur
		if ratio < 1000 || ratio > 1100 {
			t.Errorf("tolerance ratio between idx steps = %g, want ~1024", ratio)
		}
		prev = cur
	}
}

func TestTableII(t *testing.T) {
	r := TableII()
	if len(r.Rows) != 15 {
		t.Fatalf("Table II should have 15 abbreviations, got %d", len(r.Rows))
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "!"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFigure1OutliersUncorrelated(t *testing.T) {
	r := Figure1(quickCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("3 q settings expected, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		ratio := parseF(t, row[3])
		// Spatially random outliers give a cluster ratio near 1; anything
		// beyond ~5 would mean strong clustering, contradicting Fig. 1.
		if ratio > 5 {
			t.Errorf("q=%s: cluster ratio %g suggests correlated outliers", row[0], ratio)
		}
	}
	// Outlier percentage must grow with q.
	p13 := parseF(t, r.Rows[0][2])
	p17 := parseF(t, r.Rows[2][2])
	if p17 <= p13 {
		t.Errorf("outlier %% should grow with q: %g (1.3t) vs %g (1.7t)", p13, p17)
	}
}

func TestFigure2InverseRelationship(t *testing.T) {
	r := Figure2(quickCfg())
	if len(r.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(r.Rows))
	}
	// Coefficient cost must decrease with q, outlier cost must increase.
	firstCoeff := parseF(t, r.Rows[0][1])
	lastCoeff := parseF(t, r.Rows[len(r.Rows)-1][1])
	if lastCoeff >= firstCoeff {
		t.Errorf("coefficient BPP should fall as q grows: %g -> %g", firstCoeff, lastCoeff)
	}
	firstOut := parseF(t, r.Rows[0][3])
	lastOut := parseF(t, r.Rows[len(r.Rows)-1][3])
	_ = firstOut
	firstPct := parseF(t, r.Rows[0][4])
	lastPct := parseF(t, r.Rows[len(r.Rows)-1][4])
	if lastPct <= firstPct {
		t.Errorf("outlier %% should grow with q: %g -> %g", firstPct, lastPct)
	}
	_ = lastOut
}

func TestFigure3Shapes(t *testing.T) {
	r := Figure3(quickCfg())
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// dBPP and dPSNR are differences vs the observed minimum: >= 0.
	for _, row := range r.Rows {
		if parseF(t, row[3]) < 0 {
			t.Errorf("negative dBPP in row %v", row)
		}
		if parseF(t, row[4]) < -1e-9 {
			t.Errorf("negative dPSNR in row %v", row)
		}
	}
}

func TestFigure4BitsPerOutlier(t *testing.T) {
	r := Figure4(quickCfg())
	for _, row := range r.Rows {
		bpo := parseF(t, row[2])
		if bpo != 0 && (bpo < 2 || bpo > 40) {
			t.Errorf("case %s q=%s: %g bits/outlier outside plausible range", row[0], row[1], bpo)
		}
	}
}

func TestFigure5BiggerChunksBetter(t *testing.T) {
	r := Figure5(quickCfg())
	// Rows come in groups of 3 chunk sizes per idx; the largest chunk
	// (last in group) should have dGain == 0 (the best) or near it.
	for i := 2; i < len(r.Rows); i += 3 {
		d := parseF(t, r.Rows[i][3])
		if d < -0.5 {
			t.Errorf("full-volume chunk much worse than smaller chunks: dGain %g", d)
		}
	}
}

func TestFigure6Breakdown(t *testing.T) {
	r := Figure6(quickCfg())
	if len(r.Rows) != 2 {
		t.Fatalf("quick mode should test 2 idx levels, got %d", len(r.Rows))
	}
	// Total must be >= each component and speck time should grow with idx.
	s0 := parseF(t, r.Rows[0][2])
	s1 := parseF(t, r.Rows[1][2])
	if s1 < s0*0.5 {
		t.Errorf("SPECK time should grow (or stay) as tolerance tightens: %g -> %g", s0, s1)
	}
}

func TestFigure7SpeedupSane(t *testing.T) {
	r := Figure7(quickCfg())
	for _, row := range r.Rows {
		sp := parseF(t, row[3])
		w := parseF(t, row[1])
		if sp > w*1.5+0.5 {
			t.Errorf("speedup %g with %g workers is super-linear beyond plausibility", sp, w)
		}
	}
}

func TestFigure9SperrCompetitive(t *testing.T) {
	r := Figure9(quickCfg())
	wins := 0
	for _, row := range r.Rows {
		sperr := parseF(t, row[1])
		best := sperr
		for _, cell := range row[2:] {
			if cell == "error" {
				continue
			}
			v := parseF(t, cell)
			if v < best {
				best = v
			}
		}
		if sperr <= best*1.0000001 {
			wins++
		}
	}
	// The paper has SPERR winning all but two cases; at reduced scale we
	// require it to win at least one of the quick cases.
	if wins == 0 {
		t.Errorf("SPERR won no cases:\n%v", r.Rows)
	}
}

func TestFigure11SperrBeatsSZ(t *testing.T) {
	r := Figure11(quickCfg())
	better := 0
	total := 0
	for _, row := range r.Rows {
		if row[2] == "-" {
			continue
		}
		total++
		if parseF(t, row[2]) < parseF(t, row[3]) {
			better++
		}
	}
	if total == 0 {
		t.Fatal("no cases produced outliers")
	}
	if better*2 < total {
		t.Errorf("SPERR outlier coder better in only %d/%d cases", better, total)
	}
}

func TestAblationOutlierCoderOrdering(t *testing.T) {
	r := AblationOutlierCoder(quickCfg())
	for _, row := range r.Rows {
		if row[2] == "-" {
			continue
		}
		sperr := parseF(t, row[2])
		csr := parseF(t, row[5])
		bitmap := parseF(t, row[6])
		if sperr >= csr {
			t.Errorf("%s: SPERR coder %g not better than CSR %g", row[0], sperr, csr)
		}
		if sperr >= bitmap {
			t.Errorf("%s: SPERR coder %g not better than bitmap %g", row[0], sperr, bitmap)
		}
	}
}

func TestAblationPredictor(t *testing.T) {
	r := AblationPredictor(quickCfg())
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if parseF(t, row[1]) <= 0 || parseF(t, row[2]) <= 0 {
			t.Errorf("non-positive BPP in %v", row)
		}
	}
}

func TestAblationLossless(t *testing.T) {
	r := AblationLossless(quickCfg())
	for _, row := range r.Rows {
		with := parseF(t, row[1])
		without := parseF(t, row[2])
		// The container falls back to verbatim storage, so the lossless
		// stage can never make the stream more than trivially larger.
		if with > without*1.01+0.01 {
			t.Errorf("%s: lossless stage grew the stream: %g vs %g", row[0], with, without)
		}
	}
}

func TestAblationBitGroom(t *testing.T) {
	r := AblationBitGroom(quickCfg())
	for _, row := range r.Rows {
		sperrBPP := parseF(t, row[1])
		groomBPP := parseF(t, row[2])
		if sperrBPP >= groomBPP {
			t.Errorf("%s: SPERR %g BPP not better than bit grooming %g", row[0], sperrBPP, groomBPP)
		}
		if ratio := parseF(t, row[3]); ratio > 1 {
			t.Errorf("%s: bit grooming violated the matched tolerance (%g)", row[0], ratio)
		}
	}
}

func TestByIDCoversAll(t *testing.T) {
	ids := []string{"tab1", "tab2", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"abl-lossless", "abl-outlier", "abl-predictor", "abl-bitgroom"}
	for _, id := range ids {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("unknown id should return nil")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// tinyOpts is every workload shrunk to a 32^3 field (16^3 codec chunks,
// 8^3 serving chunks), one round, one set-up, one repetition.
func tinyOpts(t *testing.T) runOpts {
	return runOpts{
		sz:   sizing{field: 32, phase: 50 * time.Millisecond, minRounds: 1, setups: 1, reps: 1, lossReads: 4},
		seed: 1,
		tmp:  t.TempDir(),
		out:  t.TempDir(),
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestRegistryMatchesManifest pins the harness's workload and metric
// registry to BENCHMARK.json, entry by entry and in order.
func TestRegistryMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	// One line per entry, so a mismatch names the entry and not the file.
	var inJSON, inCode []string
	for _, w := range m.Workloads {
		inJSON = append(inJSON, fmt.Sprintf("workload %s: %s", w.Name, w.Why))
	}
	for _, d := range m.EndToEnd {
		inJSON = append(inJSON, fmt.Sprintf("end_to_end %s %s %s %g", d.Name, d.Unit, d.Better, d.Bound))
	}
	for _, d := range m.PerLayer {
		inJSON = append(inJSON, fmt.Sprintf("per_layer %s %s %s", d.Name, d.Unit, d.Better))
	}
	for _, w := range workloads {
		inCode = append(inCode, fmt.Sprintf("workload %s: %s", w.Name, w.Why))
	}
	for _, d := range endToEnd {
		inCode = append(inCode, fmt.Sprintf("end_to_end %s %s %s %g", d.Name, d.Unit, d.Better, d.Bound))
	}
	for _, d := range perLayer {
		inCode = append(inCode, fmt.Sprintf("per_layer %s %s %s", d.Name, d.Unit, d.Better))
	}
	for i := 0; i < max(len(inJSON), len(inCode)); i++ {
		var j, c string
		if i < len(inJSON) {
			j = inJSON[i]
		}
		if i < len(inCode) {
			c = inCode[i]
		}
		if j != c {
			t.Fatalf("BENCHMARK.json and the registry disagree at entry %d:\n json: %s\n code: %s", i, j, c)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 {
		t.Fatalf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// checkOutcome asserts that a run set every registered metric exactly once
// (results refuses unknown and repeated names, complete finds missing
// ones) and that each value is one its kind allows.
func checkOutcome(t *testing.T, oc *outcome) {
	t.Helper()
	if err := oc.metrics.complete(); err != nil {
		t.Error(err)
	}
	if len(oc.metrics.values) != len(oc.metrics.defs) {
		t.Errorf("%d values for %d registered metrics", len(oc.metrics.values), len(oc.metrics.defs))
	}
	for _, d := range oc.metrics.defs {
		v := oc.metrics.values[d.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s = %v is not finite", d.Name, v)
		case d.kind == positive && v <= 0:
			t.Errorf("%s = %v, want > 0", d.Name, v)
		case d.kind == counter && v < 0:
			t.Errorf("%s = %v, want >= 0", d.Name, v)
		}
	}
	if oc.attempted < 1 || oc.failed != 0 {
		t.Errorf("%d of %d ops failed", oc.failed, oc.attempted)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here asserts on a time
			o := tinyOpts(t)
			gated, err := runGated(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, gated)
			traced, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, traced)
			if _, err := os.Stat(o.out + "/" + w.Name + ".trace.json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChecksHaveTeeth damages the references and requires failed ops: one
// flipped oracle byte under a box every serving warm-up reads, and a
// halved tolerance under the codec's bound check.
func TestChecksHaveTeeth(t *testing.T) {
	flipByte := func(ck *checker) { // the first sample of the first seeded box
		o, d := ck.in.origins[0], ck.in.dims
		i := (o[2]*d[1]+o[1])*d[0] + o[0]
		ck.oracle[i] = math.Float64frombits(math.Float64bits(ck.oracle[i]) ^ 1)
	}
	for _, tc := range []struct {
		workload string
		tamper   func(*checker)
	}{
		{"serve_hot", flipByte},
		{"cluster_r2", flipByte},
		{"codec_loose", func(ck *checker) { ck.tol /= 2 }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			w, _ := workloadByName(tc.workload)
			o := tinyOpts(t)
			o.tamper = tc.tamper
			oc, err := runGated(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed == 0 {
				t.Fatalf("damaged reference went unnoticed over %d ops", oc.attempted)
			}
		})
	}
}

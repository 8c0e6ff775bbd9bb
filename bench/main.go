// Command sperr-bench is the repository's end-to-end benchmark: five
// workloads over the codec library and in-process sperrd nodes, five
// end-to-end metrics each, every output checked, and with -trace 1 a
// per-layer ledger timed from outside the layers. See README.md.
//
//	bash bench/run.sh                                  # all workloads, gated metrics
//	bash bench/run.sh --workload serve_cold --seed 7   # one workload
//	bash bench/run.sh --workload codec_loose --trace 1 # its per-layer ledger
//	bash bench/run.sh -selfcheck                       # run twice, compare within bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// commit is stamped by run.sh (-ldflags -X); a bare `go run` leaves it.
var commit = "unknown"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all five in turn)")
		seed      = flag.Int64("seed", 1, "seeds the field's shift and the region-origin sequence")
		seconds   = flag.Float64("seconds", 18, "timed seconds per run, split evenly between write and read phase")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		selfcheck = flag.Bool("selfcheck", false, "run the gated workloads twice back to back and fail if a metric moves by more than its bound")
		tmp       = flag.String("tmp", ".bench_build/tmp", "directory for store directories (created, emptied of what the run made)")
		out       = flag.String("out", "bench/out", "directory for <workload>.trace.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "sperr-bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	for _, dir := range []string{*tmp, *out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	o := runOpts{sz: gatedSizing(*seconds), seed: *seed, tmp: *tmp, out: *out}
	printEnvironment(o)

	if *selfcheck {
		if !selfCheck(run, o) {
			os.Exit(1)
		}
		return
	}
	clean := true
	for _, w := range run {
		measure := runGated
		if *trace == 1 {
			measure = runTraced
		}
		oc, err := measure(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		report(oc)
		clean = clean && oc.failed == 0
	}
	if !clean {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sperr-bench:", err)
	os.Exit(1)
}

// printEnvironment states what a reader needs to compare two runs.
func printEnvironment(o runOpts) {
	fmt.Printf("# sperr-bench commit=%s seed=%d phase=%s rounds>=%d setups=%d\n",
		commit, o.seed, o.sz.phase, o.sz.minRounds, o.sz.setups)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Printf("# load closed loop; codec: 1 caller, %d workers; serving: %d readers on keep-alive connections, 1 ingest client\n",
		nproc(), nproc())
	fmt.Printf("# policy scrub=%s; fsync=%s\n", scrubPolicy, fsyncPolicy)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints every metric of one run by name with its unit, then the
// run's result object as the last line.
func report(oc *outcome) {
	for _, n := range oc.notes {
		fmt.Printf("# %s %s\n", oc.workload, n)
	}
	if oc.failed > 0 {
		fmt.Printf("# %s first failed operation: %s\n", oc.workload, oc.firstFail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(oc.metrics.defs))
	for _, d := range oc.metrics.defs {
		v := oc.metrics.values[d.Name]
		line := fmt.Sprintf("%-12s %-30s %14.6g %s", oc.workload, d.Name, v, d.Unit)
		if d.moves != "" {
			line += "   -> " + d.moves
		}
		fmt.Println(line)
		metrics[d.Name] = value{v, d.Unit}
	}
	fmt.Printf("%-12s %-30s %14d\n%-12s %-30s %14d\n",
		oc.workload, "ops_attempted", oc.attempted, oc.workload, "ops_failed", oc.failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{oc.failed == 0, oc.attempted, oc.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// selfCheck is the repeatability acceptance as one command: each workload's
// gated run twice back to back, every metric's relative gap against its
// bound, and the two ingest-path write rates against each other.
func selfCheck(run []workload, o runOpts) bool {
	ok := true
	writes := map[string]float64{}
	for _, w := range run {
		var pair [2]*outcome
		for i := range pair {
			oc, err := runGated(w, o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			pair[i] = oc
			ok = ok && oc.failed == 0
		}
		for _, d := range endToEnd {
			a, b := pair[0].metrics.values[d.Name], pair[1].metrics.values[d.Name]
			ok = checkGap(w.Name, d.Name, a, b, d.Bound) && ok
		}
		writes[w.Name] = pair[0].metrics.values["write_mb_s"]
	}
	if hot, cold := writes["serve_hot"], writes["serve_cold"]; hot > 0 && cold > 0 {
		// Same ingest path in both workloads: a gap here is host noise.
		ok = checkGap("serve_hot~cold", "write_mb_s", hot, cold, 0.10) && ok
	}
	return ok
}

func checkGap(workload, name string, a, b, bound float64) bool {
	gap := math.Abs(a-b) / math.Min(a, b)
	verdict := "ok"
	if !(gap <= bound) {
		verdict = "BREACH"
	}
	fmt.Printf("%-14s %-16s %12.6g %12.6g  gap %6.2f%%  bound %5.1f%%  %s\n",
		workload, name, a, b, 100*gap, 100*bound, verdict)
	return verdict == "ok"
}

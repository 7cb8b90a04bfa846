// Command bench is the repository's benchmark: five seeded steady-state
// workloads, end-to-end metrics from untraced runs, per-layer metrics and
// a layer budget from traced runs, and a comparison of two sets of runs.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs; run i of -runs uses seed+i")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run (closed-loop + open-loop) on the reference sandbox")
	scale := fs.Float64("scale", 1, "multiplies -seconds and the preloaded pool; 0.05 is the smoke run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span files and the layer budget")
	runs := fs.Int("runs", 1, "repeat the selection this many times; the summary holds medians and quartiles")
	out := fs.String("out", "out", "directory for summary.json, span files and scratch journals")
	compare := fs.Bool("compare", false, "compare two summary files given as arguments: base new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two summary files: base new")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *out)
	}
	if *seconds <= 0 || *scale <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -scale and -runs must be positive, -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *workload != "" {
		spec := specByName(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*workloadSpec{spec}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	sum := newSummary(*seconds, *scale, *trace == 1)
	var last *result
	ok := true
	for i := 0; i < *runs; i++ {
		rr := runRecord{Seed: *seed + int64(i), Workloads: map[string]*workloadRecord{}}
		for _, spec := range selected {
			tmp := filepath.Join(*out, "tmp", fmt.Sprintf("%s-%d", spec.Name, os.Getpid()))
			cfg := runConfig{
				seed: rr.Seed, seconds: *seconds * *scale, scale: *scale,
				lanes: runtime.NumCPU(), tmpDir: tmp,
			}
			runFn := runWorkload
			if sum.Traced {
				runFn = runTraced
			}
			r, err := runFn(spec, cfg)
			_ = os.RemoveAll(tmp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(r)
			rr.Workloads[spec.Name] = recordOf(r)
			ok = ok && r.correct()
			last = r
		}
		sum.Runs = append(sum.Runs, rr)
	}
	_ = os.Remove(filepath.Join(*out, "tmp"))
	sum.summarize()
	path := filepath.Join(*out, "summary.json")
	if err := writeJSON(path, sum); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	if *workload != "" && *runs == 1 {
		// The single-workload form ends with the one-line result a driver
		// reads.
		fmt.Println(driverLine(last))
	}
	if !ok {
		return 1
	}
	return 0
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a timing or rate.
	Samples int `json:"samples,omitempty"`
	// Percentile is the percentile a *_p99_ms metric was read at when the
	// samples did not support p99 (the highest with ten samples beyond it).
	Percentile float64 `json:"percentile,omitempty"`
}

// workloadRecord is one run of one workload as written to summary.json.
type workloadRecord struct {
	Correct     bool             `json:"correct"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	FailedRatio float64          `json:"failed_ratio"`
	Metrics     map[string]value `json:"metrics"`
	Layers      map[string]value `json:"layers,omitempty"`
	Budget      []budgetRow      `json:"budget,omitempty"`
	PerOpUs     float64          `json:"closed_loop_us_per_op"`
	Checks      []checkResult    `json:"checks"`
	// CalmWaitS is how long the run waited for stolen CPUs to come back.
	CalmWaitS float64 `json:"calm_wait_s,omitempty"`
}

type runRecord struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// spread is a metric's median and quartiles over the runs of a set.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summary is summary.json: every run's numbers, and per workload and
// metric their median and quartiles. Claim is the last field and is null:
// the benchmark measures, it does not claim.
type summary struct {
	Bench   string                       `json:"bench"`
	Go      string                       `json:"go"`
	NProc   int                          `json:"nproc"`
	Seconds float64                      `json:"seconds"`
	Scale   float64                      `json:"scale"`
	Traced  bool                         `json:"traced"`
	Note    string                       `json:"note"`
	Runs    []runRecord                  `json:"runs"`
	Summary map[string]map[string]spread `json:"summary"`
	Claim   *string                      `json:"claim"`
}

func newSummary(seconds, scale float64, traced bool) *summary {
	return &summary{
		Bench: "ctxres/bench", Go: runtime.Version(), NProc: runtime.NumCPU(),
		Seconds: seconds, Scale: scale, Traced: traced,
		Note: "fsync and loopback figures are this sandbox's file system and kernel, not a device's or a link's",
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

func recordOf(r *result) *workloadRecord {
	rec := &workloadRecord{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]value{}, PerOpUs: r.perOpUs, Checks: r.checks, Budget: r.budget,
		CalmWaitS: r.calmWait.Seconds(),
	}
	if r.attempted > 0 {
		rec.FailedRatio = float64(r.failed) / float64(r.attempted)
	}
	for name, v := range r.values {
		val := value{Value: v, Unit: unitOf(name), Samples: r.counts[name]}
		if pct, ok := r.tails[name]; ok && pct != 99 {
			val.Percentile = pct
		}
		rec.Metrics[name] = val
	}
	if r.cfg.traced() {
		rec.Layers = map[string]value{}
		for _, d := range perLayer {
			rec.Layers[d.Name] = value{Value: r.layerValue(d.Name), Unit: d.Unit}
		}
	}
	return rec
}

// summarize fills the per-metric medians and quartiles; a traced set's
// cover its per-layer metrics too.
func (s *summary) summarize() {
	collected := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, rr := range s.Runs {
		for wl, rec := range rr.Workloads {
			if collected[wl] == nil {
				collected[wl] = map[string][]float64{}
			}
			for name, v := range rec.Metrics {
				collected[wl][name] = append(collected[wl][name], v.Value)
				units[name] = v.Unit
			}
			for name, v := range rec.Layers {
				if _, reported := rec.Metrics[name]; !reported {
					collected[wl][name] = append(collected[wl][name], v.Value)
					units[name] = v.Unit
				}
			}
			collected[wl]["failed_ratio"] = append(collected[wl]["failed_ratio"], rec.FailedRatio)
			units["failed_ratio"] = "ratio"
		}
	}
	s.Summary = map[string]map[string]spread{}
	for wl, metrics := range collected {
		s.Summary[wl] = map[string]spread{}
		for name, vals := range metrics {
			q1, q3 := quartiles(vals)
			s.Summary[wl][name] = spread{Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Unit: units[name]}
		}
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method);
// with fewer than two values both are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints one run of one workload for a person to read.
func printResult(r *result) {
	mode := "untraced"
	if r.cfg.traced() {
		mode = "traced, quarter budget"
	}
	fmt.Printf("\n== %s  seed %d  %.3g s  %d lane(s)  %s\n", r.spec.Name, r.cfg.seed, r.cfg.seconds, r.cfg.lanes, mode)
	if !r.cfg.traced() {
		for _, d := range reported() {
			v, ok := r.values[d.Name]
			if !ok {
				continue
			}
			note := ""
			if n := r.counts[d.Name]; n > 0 {
				note = fmt.Sprintf("  (%d samples)", n)
			}
			if pct, ok := r.tails[d.Name]; ok && pct != 99 {
				note = fmt.Sprintf("  (%d samples: read at p%g)", r.counts[d.Name], pct)
			}
			fmt.Printf("  %-26s %14.4f %-6s%s\n", d.Name, v, d.Unit, note)
		}
	} else {
		fmt.Printf("  %-34s %14.4f %s\n", "throughput_ops_s (traced)", r.values["throughput_ops_s"], "ops/s")
		for _, d := range perLayer {
			fmt.Printf("  %-34s %14.4f %s\n", d.Name, r.layerValue(d.Name), d.Unit)
		}
		if ratio := r.layer["telemetry.trace_overhead_ratio"]; ratio < traceOverheadFloor {
			fmt.Printf("  NOT MET: telemetry.trace_overhead_ratio %.3f is below %.2f on this run\n", ratio, traceOverheadFloor)
		}
		fmt.Printf("  budget: closed-loop lane time per op %.1f us\n", r.perOpUs)
		for _, row := range r.budget {
			fmt.Printf("    %-12s %10.1f us  %6.1f %%\n", row.Layer, row.Us, row.Share*100)
		}
	}
	if r.calmWait > 0 {
		fmt.Printf("  waited %.1f s for CPUs the hypervisor had taken away\n", r.calmWait.Seconds())
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-26s %14.6f %-6s  (%d of %d ops)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	passed := 0
	for _, c := range r.checks {
		if c.OK {
			passed++
		} else {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Printf("  checks: %d of %d passed\n", passed, len(r.checks))
}

// driverLine is the one-line result a driver reads: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func driverLine(r *result) string {
	metrics := map[string]value{}
	if r.cfg.traced() {
		for _, d := range perLayer {
			metrics[d.Name] = value{Value: r.layerValue(d.Name), Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{Value: r.values[d.Name], Unit: d.Unit}
		}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics}
	data, err := json.Marshal(line)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return strings.TrimSpace(string(data))
}

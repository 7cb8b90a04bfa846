package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// failedRatioBound is the absolute rise of failed_ratio that counts as a
// regression (the metric's base is 0, so a share of it means nothing).
const failedRatioBound = 0.001

// compareRow is one workload × metric verdict. Ratio is new/base.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio_new_over_base"`
	Spread   float64 `json:"spread"` // the wider side's (q3-q1)/median
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"` // ok, worse, unresolved
	// Advisory marks a tail latency: its verdict is reported but does not
	// fail the comparison.
	Advisory bool `json:"advisory,omitempty"`
}

// comparison is what -compare writes: the two sets' medians and quartiles
// and the verdicts, with where they were measured.
type comparison struct {
	Base    string                                  `json:"base"`
	New     string                                  `json:"new"`
	Go      string                                  `json:"go"`
	NProc   int                                     `json:"nproc"`
	Seconds float64                                 `json:"seconds"`
	Note    string                                  `json:"note"`
	Sets    map[string]map[string]map[string]spread `json:"sets"`
	Rows    []compareRow                            `json:"rows"`
	Claim   *string                                 `json:"claim"`
}

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Summary) == 0 {
		return nil, fmt.Errorf("%s: no summary section; is it a bench summary.json?", path)
	}
	return &s, nil
}

// verdict applies the comparison rule to one metric: worse when the new
// median is beyond the bound and beyond what the runs scatter by
// themselves; unresolved when the runs scatter more than the bound, so
// "no regression" cannot be told either; ok otherwise.
func verdict(d metricDef, base, new spread) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, Better: d.Better,
		Base: base.Median, New: new.Median, Bound: d.Bound, Verdict: "ok"}
	if base.Median != 0 {
		row.Ratio = new.Median / base.Median
	}
	for _, s := range []spread{base, new} {
		if s.N >= 2 && s.Median != 0 {
			row.Spread = math.Max(row.Spread, (s.Q3-s.Q1)/math.Abs(s.Median))
		}
	}
	var worsening float64
	switch {
	case d.Name == "failed_ratio":
		if new.Median-base.Median > failedRatioBound {
			row.Verdict = "worse"
		}
		return row
	case base.Median == 0:
		return row
	case d.Better == "lower":
		worsening = new.Median/base.Median - 1
	default:
		worsening = 1 - new.Median/base.Median
	}
	switch {
	case worsening > d.Bound && worsening > row.Spread:
		row.Verdict = "worse"
	case row.Spread > d.Bound:
		row.Verdict = "unresolved"
	}
	return row
}

// compareFiles prints one row per workload and bounded metric and returns
// the exit code: 1 when any row is worse, 2 when the new set lacks a
// workload or metric the base has (or a file cannot be read).
func compareFiles(basePath, newPath, out string) int {
	base, err := readSummary(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	other, err := readSummary(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	return compareSets(base, other, basePath, newPath, out)
}

func compareSets(base, other *summary, basePath, newPath, out string) int {
	cmp := comparison{
		Base: basePath, New: newPath, Go: other.Go, NProc: other.NProc, Seconds: other.Seconds, Note: other.Note,
		Sets: map[string]map[string]map[string]spread{"base": base.Summary, "new": other.Summary},
	}
	defs := append(reported(), metricDef{"failed_ratio", "ratio", "lower", failedRatioBound})
	advisory := map[string]bool{}
	for _, d := range tails {
		advisory[d.Name] = true
	}
	fmt.Printf("base %s (%d runs)   new %s (%d runs)   ratio = new/base\n", basePath, len(base.Runs), newPath, len(other.Runs))
	fmt.Printf("%-18s %-26s %12s %12s %7s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "spread", "bound", "verdict")
	worse, missing := 0, 0
	for _, spec := range workloads {
		b, n := base.Summary[spec.Name], other.Summary[spec.Name]
		for _, d := range defs {
			bs, ok := b[d.Name]
			if !ok {
				continue // the base never measured it: nothing to hold the new set to
			}
			ns, ok := n[d.Name]
			if !ok {
				// A set that lost a workload or a metric (a -workload run,
				// a crashed run) must not pass as "no regression".
				missing++
				fmt.Printf("%-18s %-26s %12.4f %12s  missing from the new set\n", spec.Name, d.Name, bs.Median, "-")
				continue
			}
			row := verdict(d, bs, ns)
			row.Workload, row.Advisory = spec.Name, advisory[d.Name]
			cmp.Rows = append(cmp.Rows, row)
			note := ""
			if row.Advisory {
				note = " (tail: advisory)"
			} else if row.Verdict == "worse" {
				worse++
			}
			fmt.Printf("%-18s %-26s %12.4f %12.4f %7.3f %7.3f %6.3f  %s%s\n",
				row.Workload, row.Metric, row.Base, row.New, row.Ratio, row.Spread, row.Bound, row.Verdict, note)
		}
	}
	if err := os.MkdirAll(out, 0o755); err == nil {
		path := filepath.Join(out, "compare.json")
		if err := writeJSON(path, cmp); err != nil {
			fmt.Fprintln(os.Stderr, "bench: compare:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", path)
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "bench: compare: %d metric(s) of the base are missing from the new set\n", missing)
		return 2
	}
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than base beyond their bound\n", worse)
		return 1
	}
	return 0
}

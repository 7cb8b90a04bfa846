package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // nothing has ten samples beyond it
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	sorted := make([]time.Duration, 1000)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

// A server that stalls once must be charged for every request the stall
// delayed: latency counts from the intended send time, and the generator
// reports how late it sent.
func TestOpenLoopChargesStallsFromIntendedTime(t *testing.T) {
	const (
		rate     = 200.0 // one request every 5 ms
		requests = 30
		stall    = 60 * time.Millisecond
	)
	n := 0
	step := func(int) outcome {
		n++
		if n == 5 {
			time.Sleep(stall)
		}
		return outcome{series: seriesSubmit, ops: 1}
	}
	tl, wall := openLoop(1, rate, requests, step)
	if tl.ops != requests || len(tl.lat[seriesSubmit]) != requests || len(tl.late) != requests {
		t.Fatalf("ops %d, %d latencies, %d lateness samples; want %d each", tl.ops, len(tl.lat[seriesSubmit]), len(tl.late), requests)
	}
	if min := time.Duration(float64(requests-1) / rate * float64(time.Second)); wall < min {
		t.Errorf("open loop finished in %v, before its schedule's %v", wall, min)
	}
	// Request 5 stalls for 60 ms; requests 6.. were due every 5 ms during
	// the stall, so about eleven of them start late and inherit what is
	// left of it.
	lat := tl.lat[seriesSubmit]
	if lat[4] < stall {
		t.Errorf("stalled request took %v, want >= %v", lat[4], stall)
	}
	if want := stall - 10*time.Millisecond; lat[5] < want {
		t.Errorf("request after the stall: latency %v, want >= %v (counted from its intended send time)", lat[5], want)
	}
	if want := stall - 10*time.Millisecond; tl.late[5] < want {
		t.Errorf("request after the stall: lateness %v, want >= %v", tl.late[5], want)
	}
	delayed := 0
	for _, l := range lat[5:] {
		if l > 5*time.Millisecond {
			delayed++
		}
	}
	if delayed < 8 {
		t.Errorf("only %d later requests show the stall; a closed-loop timer would show none, the schedule demands about eleven", delayed)
	}
	if last := lat[requests-1]; last > 20*time.Millisecond {
		t.Errorf("backlog never drained: last request's latency %v", last)
	}
	if first := tl.late[0]; first > 5*time.Millisecond {
		t.Errorf("first request sent %v late on an idle generator", first)
	}
}

func TestClosedLoopSpendsTheBudget(t *testing.T) {
	calls := make([]int, 2)
	tl, _ := closedLoop(2, 1000, func(lane int) outcome {
		calls[lane]++
		return outcome{series: seriesUse, ops: 4, failed: 1}
	})
	if tl.ops != 1000 || tl.failed != 250 {
		t.Errorf("ops %d failed %d, want 1000 and 250", tl.ops, tl.failed)
	}
	if calls[0] != 125 || calls[1] != 125 {
		t.Errorf("lanes made %v requests, want 125 each", calls)
	}
}

// generated renders the first inputs of every generator for one seed.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, st := range newStreams(seed, 2, subjectNames("sub", 4), 256, errorRate) {
		for i := 0; i < 200; i++ {
			if err := enc.Encode(st.next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range preloadContexts(seed, 300) {
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	w := newPaperReplay(runConfig{seed: seed}).(*paperReplay)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	for _, pc := range w.cases[:4] {
		for _, step := range pc.w.Steps {
			for _, c := range step {
				// IDs of the paper's generators come from a process-wide
				// counter; everything else is the seed's.
				cc := c.Clone()
				cc.ID = "x"
				if err := enc.Encode(cc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := generated(t, 7), generated(t, 7), generated(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical inputs")
	}
	if len(a) < 100000 {
		t.Errorf("generated only %d bytes; the comparison is too weak", len(a))
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range reported() {
		if !seen[d.Name] {
			t.Errorf("reported metric %s is in neither table", d.Name)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("reported metric %s: bound %v", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// benchmarkFile is BENCHMARK.json as the driver's contract defines it.
type benchmarkFile struct {
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

// The names, units, directions and bounds the program emits are the ones
// BENCHMARK.json declares, exactly.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program measures %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: declared %+v, emitted %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: declared %+v, emitted %+v", i, got, d)
		}
	}

	// And the one-line result carries exactly those names.
	for _, traced := range []bool{false, true} {
		var cfg runConfig
		if traced {
			cfg.trace = newTracer(1)
		}
		r := newResult(workloads[0], cfg)
		r.attempted = 1
		var line struct {
			Metrics map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(driverLine(r)), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		var got, names []string
		for n := range line.Metrics {
			got = append(got, n)
		}
		for _, d := range want {
			names = append(names, d.Name)
		}
		sort.Strings(got)
		sort.Strings(names)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("traced=%v: the result line carries %v, BENCHMARK.json declares %v", traced, got, names)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v; want 1, 3", q1, q3)
	}
	if q1, q3 = quartiles([]float64{5}); q1 != 5 || q3 != 5 {
		t.Errorf("quartiles(5) = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"submit_p50_ms", "ms", "lower", 0.10}
	higher := metricDef{"throughput_ops_s", "ops/s", "higher", 0.10}
	tight := func(m float64) spread { return spread{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 3} }
	loose := func(m float64) spread { return spread{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 3} }
	for _, tc := range []struct {
		name      string
		d         metricDef
		base, new spread
		want      string
	}{
		{"same", lower, tight(1), tight(1.02), "ok"},
		{"slower beyond the bound", lower, tight(1), tight(1.2), "worse"},
		{"faster", lower, tight(1), tight(0.5), "ok"},
		{"less throughput", higher, tight(1000), tight(850), "worse"},
		{"more throughput", higher, tight(1000), tight(1500), "ok"},
		{"scatter wider than the bound", lower, loose(1), loose(1.05), "unresolved"},
		{"worse even beyond a wide scatter", lower, loose(1), loose(1.5), "worse"},
		{"failures appeared", metricDef{"failed_ratio", "ratio", "lower", failedRatioBound},
			spread{N: 3}, spread{Median: 0.01, N: 3}, "worse"},
	} {
		row := verdict(tc.d, tc.base, tc.new)
		if row.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, row.Verdict, tc.want, row)
		}
	}
	if row := verdict(lower, tight(2), tight(3)); math.Abs(row.Ratio-1.5) > 1e-9 {
		t.Errorf("ratio %v, want new/base = 1.5", row.Ratio)
	}
}

// A new set that lost a workload or a metric must not pass as "no
// regression".
func TestCompareRefusesAnIncompleteNewSet(t *testing.T) {
	set := func(names ...string) *summary {
		s := newSummary(runSeconds, 1, false)
		s.Summary = map[string]map[string]spread{}
		for _, w := range workloads {
			s.Summary[w.Name] = map[string]spread{}
			for _, n := range names {
				s.Summary[w.Name][n] = spread{Median: 1, Q1: 1, Q3: 1, N: 3}
			}
		}
		return s
	}
	full := set("throughput_ops_s", "submit_p50_ms")
	if code := compareSets(full, set("throughput_ops_s", "submit_p50_ms"), "a", "b", t.TempDir()); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	if code := compareSets(full, set("throughput_ops_s"), "a", "b", t.TempDir()); code != 2 {
		t.Errorf("new set without submit_p50_ms: exit %d, want 2", code)
	}
	oneWorkload := set("throughput_ops_s", "submit_p50_ms")
	delete(oneWorkload.Summary, workloads[1].Name)
	if code := compareSets(full, oneWorkload, "a", "b", t.TempDir()); code != 2 {
		t.Errorf("new set without %s: exit %d, want 2", workloads[1].Name, code)
	}
	// What the base never measured holds the new set to nothing.
	if code := compareSets(set("throughput_ops_s"), full, "a", "b", t.TempDir()); code != 0 {
		t.Errorf("base without submit_p50_ms: exit %d, want 0", code)
	}
}

func TestParseStolen(t *testing.T) {
	got, ok := parseStolen("cpu  1089111 0 142176 1899168 58395 0 63195 22392 0 0\ncpu0 1 2 3\n")
	if !ok || got != 223920*time.Millisecond {
		t.Errorf("parseStolen = %v, %v; want 223.92 s", got, ok)
	}
	if _, ok := parseStolen("intr 1 2 3\n"); ok {
		t.Error("parseStolen accepted a line that is not the cpu line")
	}
}

func TestUnaryCheckerHasBothConstraints(t *testing.T) {
	if n := len(unaryChecker().Constraints()); n != 2 {
		t.Errorf("unary checker holds %d constraints, want 2", n)
	}
}

// The smoke run drives all five workloads, their correctness checks and
// the summary at a twentieth of the size. It starts daemons and fsyncs, so
// it only runs when asked: CTXRES_BENCH_SMOKE=1 go test .
func TestSmoke(t *testing.T) {
	if os.Getenv("CTXRES_BENCH_SMOKE") == "" {
		t.Skip("set CTXRES_BENCH_SMOKE=1 to run the benchmark's smoke run")
	}
	out := t.TempDir()
	start := time.Now()
	if code := run([]string{"-scale", "0.05", "-out", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15 s", took)
	}
	sum, err := readSummary(filepath.Join(out, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Claim != nil {
		t.Error("the summary claims something")
	}
	for _, w := range workloads {
		rec := sum.Runs[0].Workloads[w.Name]
		if rec == nil {
			t.Errorf("%s: no record", w.Name)
			continue
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rec.Correct, rec.Attempted, rec.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := rec.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.Name, d.Name, v)
			}
		}
	}
}

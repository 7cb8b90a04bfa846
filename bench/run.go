package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"ctxres/internal/middleware"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// checkResult is one correctness check's verdict.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	spec   *workloadSpec
	cfg    runConfig
	values map[string]float64 // end-to-end and gated metrics by name
	counts map[string]int     // samples behind a value, where that means something
	tails  map[string]float64 // the percentile a *_p99_ms value was actually read at
	layer  map[string]float64 // per-layer metrics (traced runs; a few on every run)

	attempted, failed int64
	checks            []checkResult
	stats             middleware.Stats
	perOpUs           float64       // closed-loop lane time per application op
	calmWait          time.Duration // spent waiting for the hypervisor to give the CPUs back
	budget            []budgetRow
	// closed is what the registry's histograms observed during the
	// closed-loop phase of a traced run.
	closed map[string]telemetry.HistogramSummary
}

func newResult(spec *workloadSpec, cfg runConfig) *result {
	return &result{
		spec: spec, cfg: cfg,
		values: map[string]float64{}, counts: map[string]int{},
		tails: map[string]float64{}, layer: map[string]float64{},
	}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	if samples > 0 {
		r.counts[name] = samples
	}
}

// layerValue is a per-layer metric's value: a reported metric filed under a
// layer's name takes precedence over the layer map.
func (r *result) layerValue(name string) float64 {
	if v, ok := r.values[name]; ok {
		return v
	}
	return r.layer[name]
}

func (r *result) check(name string, ok bool, detail string) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = detail
	}
	r.checks = append(r.checks, c)
}

// correct: every check passed and no operation failed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0 && r.attempted > 0
}

// lanesFor is how many client goroutines drive the workload: nproc, except
// for the in-process replay, which is one goroutine by definition.
func lanesFor(spec *workloadSpec, cfg runConfig) int {
	if spec.openRate == 0 {
		return 1
	}
	return cfg.lanes
}

// setUp builds the workload's system under test; on failure everything
// already started is released.
func setUp(spec *workloadSpec, cfg runConfig) (workload, time.Duration, error) {
	w := spec.new(cfg)
	start := time.Now()
	err := w.setup()
	took := time.Since(start)
	if err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	return w, took, nil
}

// closedBudget is the fixed application-op budget of the closed-loop phase.
func closedBudget(spec *workloadSpec, cfg runConfig) int64 {
	return int64(spec.closedOpsPerSec * cfg.seconds * closedShare)
}

// runWorkload performs one untraced run: set-up (several times, the last
// one kept), warm-up, the measured phases, teardown checks.
func runWorkload(spec *workloadSpec, cfg runConfig) (*result, error) {
	cfg.lanes = lanesFor(spec, cfg)
	r := newResult(spec, cfg)

	quiet := &calm{left: calmBudget}
	quiet.await()
	var w workload
	var setups []float64
	base := cfg.tmpDir
	for i := 0; i < spec.setupReps; i++ {
		if w != nil {
			w.close()
		}
		cfg.tmpDir = filepath.Join(base, fmt.Sprintf("setup%d", i))
		var took time.Duration
		var err error
		if w, took, err = setUp(spec, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer w.close()
	r.set("setup_s", median(setups), len(setups))

	budget := closedBudget(spec, cfg)
	warm, _ := closedLoop(cfg.lanes, budget/10, w.step)
	if warm.failed > 0 {
		r.check("warm-up", false, fmt.Sprintf("%d of %d warm-up ops failed", warm.failed, warm.ops))
	}
	measure(spec, cfg, w, r, budget, quiet)
	r.calmWait = quiet.waited
	w.finish(r)
	return r, nil
}

// measure runs the closed-loop fixed work, then the open-loop fixed rate,
// and fills the end-to-end metrics they define, each over its whole phase:
// throughput_ops_s is acknowledged ops over the closed phase's wall time
// and a p50 is the median of every sample of the open phase, so a stall
// that recurs (compaction, GC, an fsync hiccup, a lock convoy) weighs on
// them by the time it takes.
func measure(spec *workloadSpec, cfg runConfig, w workload, r *result, budget int64, quiet *calm) {
	quiet.await()
	closed, wall := closedLoop(cfg.lanes, budget, w.step)
	r.set("heap_mb", heapMiB(), 0)
	r.set("throughput_ops_s", float64(closed.ops)/wall.Seconds(), int(closed.ops))
	r.perOpUs = us(wall) * float64(cfg.lanes) / float64(closed.ops)

	quiet.await()
	open := openPhase(spec, cfg, w.step, r)
	r.attempted = closed.ops + open.ops
	r.failed = closed.failed + open.failed
}

// openPhase runs the second measured phase — requests on the workload's
// fixed schedule, or, in process, where there is no arrival process, each
// call timed on its own — and files what its samples give: the p50s, the
// tails at the percentile the sample counts support, the share of the
// schedule achieved, and how late the generator itself ran.
func openPhase(spec *workloadSpec, cfg runConfig, step stepFunc, r *result) tally {
	seconds := cfg.seconds * (1 - closedShare)
	var open tally
	achieved := 1.0
	if spec.openRate > 0 {
		requests := int(spec.openRate * seconds)
		var wall time.Duration
		open, wall = openLoop(cfg.lanes, spec.openRate, requests, step)
		// Scheduled duration over the time it took: below 1 when a backlog
		// grew.
		achieved = float64(requests) / spec.openRate / wall.Seconds()
	} else {
		open = timedCalls(int(spec.closedOpsPerSec*seconds), step)
	}
	// Times the share of ops that succeeded.
	r.set("openloop_achieved_ratio", achieved*okShare(open), int(open.ops))

	for s, name := range []string{"submit", "use"} {
		lat := sortDurations(open.lat[s])
		r.set(name+"_p50_ms", ms(percentile(lat, 50)), len(lat))
		pct, ok := tailPercentile(len(lat))
		if !ok {
			pct = 50
		}
		pct = math.Min(pct, 99)
		r.set("daemon."+name+"_p99_ms", ms(percentile(lat, pct)), len(lat))
		r.tails["daemon."+name+"_p99_ms"] = pct
		// A full-size untraced run is sized for its tails.
		if cfg.scale >= 1 && !cfg.traced() {
			want := 99.0
			if s == seriesSubmit && spec.submitTail != 0 {
				want = spec.submitTail
			}
			r.check(name+"-tail-samples", pct == want,
				fmt.Sprintf("%d %s samples support p%g, the workload is sized for p%g", len(lat), name, pct, want))
		}
	}
	r.layer["bench.openloop_lateness_p99_ms"] = ms(percentile(sortDurations(open.late), 99))
	r.layer["bench.samples"] = float64(len(open.lat[seriesSubmit]) + len(open.lat[seriesUse]))
	return open
}

func okShare(t tally) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.ops-t.failed) / float64(t.ops)
}

// timedCalls runs requests one after another on one goroutine and times
// each on its own.
func timedCalls(requests int, step stepFunc) tally {
	var t tally
	for i := 0; i < requests; i++ {
		start := time.Now()
		o := step(0)
		t.lat[o.series] = append(t.lat[o.series], time.Since(start))
		t.add(o)
	}
	return t
}

// heapMiB is the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// measureRecovery is durable-single's teardown: the journal the run left
// must verify clean, recovery from it must reproduce the live state byte
// for byte (acknowledged ⇒ durable), and the time and space it took are
// the workload's recovery metrics.
func measureRecovery(r *result, dir string, cfg nodeConfig, live string, acked int64, js *wal.Stats) {
	bytes, err := dirBytes(dir)
	r.check("wal-size", err == nil && bytes > 0, errString(err))
	if acked > 0 {
		r.set("wal.bytes_per_ctx", float64(bytes)/float64(acked), int(acked))
	}
	rep, err := wal.Verify(dir)
	r.check("wal-verify", err == nil && rep.Clean(), fmt.Sprintf("verify: %v, report %+v", err, rep))

	loadStart := time.Now()
	_, err = wal.Load(dir)
	load := time.Since(loadStart)
	r.check("wal-load", err == nil, errString(err))

	cfg.walDir, cfg.reg = "", nil
	start := time.Now()
	mw, rrep, err := middleware.Recover(dir, cfg.build)
	took := time.Since(start)
	r.check("recover", err == nil, errString(err))
	if err != nil {
		return
	}
	r.set("wal.recover_s", took.Seconds(), rrep.Commands)
	got, err := mw.Fingerprint()
	r.check("recovered=live", err == nil && got == live, "recovered fingerprint differs from the live middleware's")

	if js != nil && js.Records > 0 {
		records := float64(js.Records)
		r.layer["wal.load_ms_per_10k_records"] = ms(load) / records * 10000
		if took > load {
			r.layer["wal.replay_us_per_record"] = us(took-load) / records
		}
	}

	// What a restart does next: reopen the log and checkpoint.
	j, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways, GroupCommit: true})
	if err != nil {
		r.check("reopen-journal", false, err.Error())
		return
	}
	if err := mw.AttachJournal(j); err != nil {
		_ = j.Close()
		r.check("reopen-journal", false, err.Error())
		return
	}
	snapStart := time.Now()
	err = mw.Checkpoint()
	r.layer["wal.snapshot_write_ms"] = ms(time.Since(snapStart))
	r.check("checkpoint", err == nil, errString(err))
	r.check("reclose-journal", mw.CloseJournal() == nil, "CloseJournal after checkpoint failed")
}

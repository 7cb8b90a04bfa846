package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ctxres/internal/telemetry"
)

// traceTurns is how many turns each system gets at the closed-loop work of
// a traced run; the budget is split evenly over them.
const traceTurns = 8

// traceOverheadFloor is the ROADMAP's ceiling of 5 % on what telemetry may
// cost, as a floor on telemetry.trace_overhead_ratio. A traced run reports
// a reading below it and does not fail on it: one quarter-budget run
// resolves the ratio to about ±0.05, so the floor is judged over a set of
// runs (README.md, "Measured shares").
const traceOverheadFloor = 0.95

// soloer is implemented by a workload whose single-lane request mix
// differs from its per-lane mix.
type soloer interface {
	setSolo(bool)
}

// runTraced performs one traced run of a workload, at a quarter of the op
// budget. It builds the system twice: once plain, for the closed-loop
// throughput that tracing is compared against (and the single-connection
// throughput that shows what the pipeline mutex allows), and once with a
// telemetry registry attached and every bench call recorded as a span.
// The two take turns at the closed-loop work (plain, traced, traced,
// plain, ...) so that drift on the machine hits both alike. End-to-end
// metrics are never taken from here.
func runTraced(spec *workloadSpec, cfg runConfig) (*result, error) {
	cfg.lanes = lanesFor(spec, cfg)
	cfg.seconds /= 4
	budget := closedBudget(spec, cfg)
	base := cfg.tmpDir

	cfg.tmpDir = filepath.Join(base, "plain")
	plain, _, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer plain.close()

	cfg.tmpDir = filepath.Join(base, "traced")
	cfg.trace = newTracer(cfg.lanes + 1)
	cfg.reg = telemetry.NewRegistry()
	r := newResult(spec, cfg)
	w, setup, err := setUp(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r.set("setup_s", setup.Seconds(), 1)

	closedLoop(cfg.lanes, budget/10, plain.step)
	closedLoop(cfg.lanes, budget/10, w.step)

	// The plain and the traced system take turns at the closed-loop work;
	// the traced one then runs the open-loop phase.
	stopWatch := watchGoroutines()
	var plainT, tracedT tally
	var plainWall, tracedWall time.Duration
	var m0, m1 runtime.MemStats
	var alloc, pause uint64
	var cycles uint32
	before := cfg.reg.Snapshot()
	for i := 0; i < 2*traceTurns; i++ {
		if i%4 == 0 || i%4 == 3 {
			t, wall := closedLoop(cfg.lanes, budget/traceTurns, plain.step)
			plainT.merge(t)
			plainWall += wall
			continue
		}
		from := time.Since(cfg.trace.t0)
		runtime.ReadMemStats(&m0)
		t, wall := closedLoop(cfg.lanes, budget/traceTurns, w.step)
		runtime.ReadMemStats(&m1)
		cfg.trace.windows = append(cfg.trace.windows, [2]int64{int64(from), int64(time.Since(cfg.trace.t0))})
		tracedT.merge(t)
		tracedWall += wall
		alloc += m1.TotalAlloc - m0.TotalAlloc
		pause += m1.PauseTotalNs - m0.PauseTotalNs
		cycles += m1.NumGC - m0.NumGC
	}
	r.closed = snapshotDelta(before, cfg.reg.Snapshot())
	plainRate := float64(plainT.ops) / plainWall.Seconds()
	tracedRate := float64(tracedT.ops) / tracedWall.Seconds()
	r.set("throughput_ops_s", tracedRate, int(tracedT.ops))
	r.perOpUs = us(tracedWall) * float64(cfg.lanes) / float64(tracedT.ops)
	r.layer["telemetry.trace_overhead_ratio"] = tracedRate / plainRate
	r.layer["go-runtime.alloc_bytes_per_op"] = float64(alloc) / float64(tracedT.ops)
	r.layer["go-runtime.gc_pause_ms_total"] = float64(pause) / 1e6
	r.layer["go-runtime.gc_cycles"] = float64(cycles)

	// One connection on its own, on the plain system.
	r.layer["middleware.conn_scaling_ratio"] = 1
	if cfg.lanes > 1 {
		if s, ok := plain.(soloer); ok {
			s.setSolo(true)
		}
		solo, soloWall := closedLoop(1, budget/2, plain.step)
		r.layer["middleware.conn_scaling_ratio"] = plainRate / (float64(solo.ops) / soloWall.Seconds())
	}
	plain.close()

	// The second phase, for the tails and the generator's lateness.
	open := openPhase(spec, cfg, w.step, r)
	r.layer["go-runtime.goroutines_max"] = float64(stopWatch())
	r.attempted = tracedT.ops + open.ops
	r.failed = tracedT.failed + open.failed

	err = runProbes(w.probeEnvs(), cfg.trace, r)
	r.check("probes", err == nil, errString(err))
	w.finish(r)
	r.budget = budgetTable(r)
	spans := filepath.Join(filepath.Dir(filepath.Dir(base)), "trace-"+spec.Name+".jsonl")
	if err := cfg.trace.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return r, nil
}

// watchGoroutines samples the goroutine count until the returned
// function is called, which reports the maximum seen.
func watchGoroutines() (stop func() int) {
	var mu sync.Mutex
	max := runtime.NumGoroutine()
	halt := every20ms(func() {
		mu.Lock()
		if n := runtime.NumGoroutine(); n > max {
			max = n
		}
		mu.Unlock()
	})
	return func() int {
		halt()
		return max
	}
}

// snapshotDelta is what the registry's histograms observed between two
// snapshots: counts and sums subtract; the bucketed quantiles do not and
// are dropped.
func snapshotDelta(before, after *telemetry.Snapshot) map[string]telemetry.HistogramSummary {
	out := make(map[string]telemetry.HistogramSummary, len(after.Histograms))
	for key, a := range after.Histograms {
		b := before.Histograms[key]
		out[key] = telemetry.HistogramSummary{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	return out
}

// meanOf is the observation-weighted mean, in microseconds, of the named
// histogram series over the closed-loop phase (sums and counts are exact);
// 0 when nothing was observed.
func meanOf(closed map[string]telemetry.HistogramSummary, keys ...string) float64 {
	var sum float64
	var n uint64
	for _, k := range keys {
		sum += closed[k].Sum
		n += closed[k].Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e6
}

func meanUs(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return us(sum) / float64(len(d))
}

// registryLayers turns what the registry observed during the traced
// closed-loop phase into the per-layer metrics the serving path reports
// about itself: the stage and request histograms are the spans inside the
// program that already exist. Restricting them (and the client spans they
// are set against) to the closed loop keeps them comparable with the
// closed-loop time per op of the budget.
func registryLayers(r *result, journaled bool) {
	h, t := r.closed, r.cfg.trace
	submitReq := meanOf(h, `ctxres_request_seconds{op="submit"}`, `ctxres_request_seconds{op="batch-submit"}`)
	r.layer["daemon.request_submit_us"] = submitReq
	r.layer["daemon.request_use_us"] = meanOf(h, `ctxres_request_seconds{op="use"}`, `ctxres_request_seconds{op="use-latest"}`)
	r.layer["daemon.push_flush_us"] = meanOf(h, "ctxres_push_seconds")

	submitOp := meanOf(h, `ctxres_op_seconds{op="submit"}`)
	r.layer["middleware.submit_us"] = submitOp
	r.layer["middleware.use_us"] = meanOf(h, `ctxres_op_seconds{op="use"}`, `ctxres_op_seconds{op="use_latest"}`)
	r.layer["constraint.stage_check_us"] = meanOf(h, `ctxres_stage_seconds{stage="check"}`)
	r.layer["strategy.stage_resolve_us"] = meanOf(h, `ctxres_stage_seconds{stage="resolve"}`)
	r.layer["wal.append_us"] = meanOf(h, "ctxres_wal_append_seconds")
	r.layer["wal.fsync_us"] = meanOf(h, "ctxres_wal_fsync_seconds")

	// What the client saw beyond what the servers timed: framing, syscalls,
	// loopback, the reply's encoding — and, through the router, its work.
	// A routed request is several shard requests; their time is summed.
	client := append(t.closedDurations("client.submit"), t.closedDurations("client.batch-submit")...)
	served := h[`ctxres_request_seconds{op="submit"}`].Count + h[`ctxres_request_seconds{op="batch-submit"}`].Count
	if len(client) > 0 && served > 0 {
		perClient := submitReq * float64(served) / float64(len(client))
		if wire := meanUs(client) - perClient; wire > 0 {
			r.layer["daemon.wire_self_us"] = wire
		}
	}
	if journaled && served > 0 {
		// The server times a request from decoding to the reply being
		// ready; the middleware times an operation until it releases its
		// lock. What lies between is decoding and the wait for the commit.
		items := float64(h[`ctxres_op_seconds{op="submit"}`].Count) / float64(served)
		if wait := submitReq - items*(submitOp+r.layer["ctx.decode_us"]); wait > 0 {
			r.layer["wal.commit_wait_us"] = wait
		}
	}
}

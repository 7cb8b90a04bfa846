package main

import (
	"encoding/json"
	"math"
	"runtime"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/pool"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
)

// probeEnv is what a workload hands the layer probes: its pool as the
// measured phases left it, its constraint set, the situations its
// application side evaluates, and the continuation of its input stream.
type probeEnv struct {
	pool       *pool.Pool
	checker    *constraint.Checker
	situations *situation.Engine
	next       func() *ctx.Context
	// weight is the stream's share of the workload's ops when a workload
	// has several; the probe inputs are divided in proportion.
	weight float64
}

// probeInputs is how many sampled inputs the probes run on.
const probeInputs = 120

// countingUniverse counts the candidate bindings the checker is handed.
type countingUniverse struct {
	u constraint.Universe
	n int
}

func (c *countingUniverse) ContextsOfKind(kind ctx.Kind) []*ctx.Context {
	list := c.u.ContextsOfKind(kind)
	c.n += len(list)
	return list
}

// runProbes times direct calls into each package's public functions from
// outside, on a twin of the workload's pool (the same entries, restored
// from a deep copy of its snapshot) and on the workload's next inputs, so
// every number is taken at that workload's state size. Each input is one
// op: a probe.input root span with one child per call. The per-layer
// metrics are the medians of those spans. A workload that runs several
// kinds of stream hands over one environment per kind: the inputs are
// divided among them by weight, and a metric is the weighted sum of the
// environments' medians (the median of the pooled spans would sit inside
// whichever kind has the most, not between them).
func runProbes(envs []probeEnv, t *tracer, r *result) error {
	var tot probeTotals
	var weights float64
	for _, env := range envs {
		weights += env.weight
	}
	lane := len(t.lanes) - 1 // the probes' own span buffer
	shares := make([]float64, len(envs))
	spans := make([][]spanRec, len(envs))
	for i, env := range envs {
		shares[i] = 1 / float64(len(envs))
		if weights > 0 {
			shares[i] = env.weight / weights
		}
		from := len(t.lanes[lane])
		if err := tot.probe(env, int(math.Round(probeInputs*shares[i])), t, lane); err != nil {
			return err
		}
		spans[i] = t.lanes[lane][from:]
	}
	n := float64(len(envs))
	inputs := float64(tot.inputs)
	r.layer["pool.snapshot_ms"] = tot.snapshotMs / n
	r.layer["pool.resident"] = tot.resident / n
	r.layer["pool.checking"] = tot.checking / n
	if tot.resident > 0 {
		r.layer["pool.bytes_per_resident"] = tot.twinBytes / tot.resident
	}
	p50 := func(name string) float64 {
		var sum float64
		for i := range envs {
			sum += shares[i] * us(percentile(sortDurations(durationsOf(spans[i], name)), 50))
		}
		return sum
	}
	r.layer["ctx.encode_us"] = p50("probe.ctx.encode")
	r.layer["ctx.decode_us"] = p50("probe.ctx.decode")
	r.layer["ctx.encoded_bytes"] = tot.encoded / inputs
	r.layer["pool.sweep_us"] = p50("probe.pool.sweep")
	r.layer["pool.add_us"] = p50("probe.pool.add")
	r.layer["pool.universe_us"] = p50("probe.pool.universe")
	r.layer["pool.available_by_subject_us"] = p50("probe.pool.available_by_subject")
	r.layer["pool.available_by_kind_us"] = p50("probe.pool.available_by_kind")
	r.layer["pool.compact_us"] = p50("probe.pool.compact")
	r.layer["constraint.check_addition_us_p50"] = p50("probe.constraint.check_addition")
	check := sortDurations(t.durations("probe.constraint.check_addition"))
	if pct, ok := tailPercentile(len(check)); ok {
		r.layer["constraint.check_addition_us_p99"] = us(percentile(check, pct))
	}
	r.layer["constraint.bindings_per_check"] = tot.bindings / inputs
	r.layer["constraint.check_alloc_bytes"] = tot.checkAllocs / inputs
	r.layer["strategy.on_addition_us"] = p50("probe.strategy.on_addition")
	r.layer["strategy.on_use_us"] = p50("probe.strategy.on_use")
	r.layer["situation.evaluate_us"] = p50("probe.situation.evaluate")
	return nil
}

// probeTotals sums what the probes count rather than time.
type probeTotals struct {
	inputs                                    int
	snapshotMs, resident, checking            float64
	twinBytes, encoded, bindings, checkAllocs float64
}

// probe runs n inputs of one environment.
func (tot *probeTotals) probe(env probeEnv, n int, t *tracer, lane int) error {
	start := time.Now()
	snap := env.pool.Snapshot()
	tot.snapshotMs += ms(time.Since(start))
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	// The twin is restored from a deep copy, so it shares nothing with the
	// live pool and the heap it adds is entries, indices and contexts.
	before := liveHeap()
	var copied pool.Snapshot
	if err := json.Unmarshal(blob, &copied); err != nil {
		return err
	}
	twin, err := pool.Restore(copied)
	if err != nil {
		return err
	}
	copied = pool.Snapshot{}
	after := liveHeap()
	runtime.KeepAlive(snap) // alive at both readings, so they cancel
	runtime.KeepAlive(blob)
	tot.resident += float64(twin.Len())
	tot.checking += float64(twin.Stats().Checking)
	if after > before {
		tot.twinBytes += float64(after - before)
	}

	// Every input is added and the oldest unused context is used, so the
	// checking buffer stays the size the workload left it at.
	strat := strategy.NewDropBad()
	pending := twin.Checking()
	for i := 0; i < n; i++ {
		c := env.next()
		tot.inputs++
		root := t.child(lane, "probe.input", 0, func() {})
		span := func(name string, fn func()) { t.child(lane, name, root, fn) }

		var wire []byte
		span("probe.ctx.encode", func() { wire, _ = json.Marshal(c) })
		tot.encoded += float64(len(wire))
		span("probe.ctx.decode", func() {
			var dec ctx.Context
			_ = json.Unmarshal(wire, &dec)
		})

		// The submit path: sweep, add, snapshot the checking buffer, check,
		// consult the strategy.
		span("probe.pool.sweep", func() { twin.SweepExpired(c.Timestamp) })
		span("probe.pool.add", func() { _ = twin.Add(c) })
		var u *constraint.SliceUniverse
		span("probe.pool.universe", func() { u = twin.CheckingUniverse() })
		cu := &countingUniverse{u: u}
		var vios []constraint.Violation
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		span("probe.constraint.check_addition", func() { vios = env.checker.CheckAddition(cu, c) })
		runtime.ReadMemStats(&m1)
		tot.checkAllocs += float64(m1.TotalAlloc - m0.TotalAlloc)
		tot.bindings += float64(cu.n)
		var out strategy.Outcome
		span("probe.strategy.on_addition", func() { out = strat.OnAddition(c, vios) })
		applyDiscards(twin, out)

		// The use path.
		pending = append(pending, c)
		{
			old := pending[0]
			pending = pending[1:]
			if !twin.Discarded(old.ID) {
				var usable bool
				span("probe.strategy.on_use", func() { usable, out = strat.OnUse(old) })
				applyDiscards(twin, out)
				if usable {
					_ = twin.MarkUsed(old.ID)
				}
			}
		}

		// The read side.
		span("probe.pool.available_by_subject", func() { twin.AvailableBySubject(c.Subject) })
		span("probe.pool.available_by_kind", func() { twin.AvailableByKind(c.Kind) })
		span("probe.situation.evaluate", func() {
			env.situations.Evaluate(constraint.NewSliceUniverse(twin.Delivered()), c.Timestamp)
		})
		if i%20 == 19 {
			span("probe.pool.compact", func() { twin.Compact() })
		}
	}
	return nil
}

func applyDiscards(p *pool.Pool, out strategy.Outcome) {
	for _, d := range out.Discard {
		_ = p.Discard(d.ID) // unknown to the twin: nothing to discard
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

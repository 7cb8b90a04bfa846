package main

import "math"

// opMix says what one application op of a workload consists of, so that a
// probe's time per call can be turned into time per op.
type opMix struct {
	submits  float64 // contexts submitted per op
	uses     float64 // use ops per op
	latests  float64 // use-latest ops per op
	requests float64 // client requests per op; 0 in process
	hops     float64 // times a context crosses a wire: 0 in process, 1 to a daemon, 2 through the router
	evals    float64 // situation/subscription evaluations per op
}

// budgetRow is one layer's share of the closed-loop time per op.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_op"`
	Share float64 `json:"share"`
}

// budgetTable sets each layer's time per application op — the layer's
// probe medians (or, for what only the serving path can time, its stage
// histogram means) times how often the op mix calls it — against the
// closed-loop lane time per op. What the rows do not explain (waiting for
// the pipeline mutex, scheduling, anything unprobed) is the unaccounted
// row, and bench.unaccounted_ratio.
func budgetTable(r *result) []budgetRow {
	m, l := r.spec.mix, r.layer
	ops := m.submits + m.uses + m.latests
	enc, dec := l["ctx.encode_us"], l["ctx.decode_us"]

	// A context is encoded and decoded once per wire it crosses, in a
	// submit's request and in a use's reply; a journaled submit encodes it
	// once more into its record.
	journaled := l["wal.records_per_ctx"] > 0
	ctxUs := m.hops * ops * (enc + dec)
	if journaled {
		ctxUs += m.submits * enc
	}

	poolSubmit := l["pool.sweep_us"] + l["pool.add_us"] + l["pool.universe_us"]
	poolUs := m.submits*poolSubmit + m.uses*l["pool.sweep_us"] +
		m.latests*(l["pool.sweep_us"]+l["pool.available_by_kind_us"])
	constraintUs := m.submits * l["constraint.check_addition_us_p50"]
	strategyUs := m.submits*l["strategy.on_addition_us"] + m.uses*l["strategy.on_use_us"]
	situationUs := m.evals * l["situation.evaluate_us"]

	var walAppend, walUs float64
	if journaled {
		walAppend = l["wal.append_us"] * l["wal.records_per_ctx"]
		// Submits and uses both journal and both wait for the commit; a
		// batch waits once.
		waits := m.uses + m.submits/math.Max(1, l["daemon.batch_items_per_request"])
		walUs = (m.submits+m.uses)*walAppend/2 + waits*l["wal.commit_wait_us"]
	}

	// The middleware's own part of an operation is what its timer saw
	// beyond the calls probed above — which includes waiting for the
	// pipeline mutex, because the timer starts before the lock is taken.
	selfSubmit := l["middleware.submit_us"] - poolSubmit - l["constraint.check_addition_us_p50"] -
		l["strategy.on_addition_us"] - walAppend/2
	if m.evals > 0 && m.requests > 0 {
		selfSubmit -= l["situation.evaluate_us"] // the hub evaluates under the operation
	}
	if selfSubmit < 0 || l["middleware.submit_us"] == 0 {
		selfSubmit = 0
	}
	l["middleware.self_us"] = selfSubmit
	selfUse := 0.0
	if reads := m.uses + m.latests; reads > 0 && l["middleware.use_us"] > 0 {
		probed := l["pool.sweep_us"] + (m.latests*l["pool.available_by_kind_us"]+m.uses*l["strategy.on_use_us"])/reads
		if m.requests == 0 {
			probed += m.evals / reads * l["situation.evaluate_us"] // the application evaluates after its uses
		}
		selfUse = math.Max(0, l["middleware.use_us"]-probed-walAppend/2)
	}
	middlewareUs := m.submits*selfSubmit + (m.uses+m.latests)*selfUse

	// The wire's own time, net of the codec work that happens inside it.
	daemonUs := m.requests*(l["daemon.wire_self_us"]+l["cluster.router_hop_us"]) - m.hops*ops*(enc+dec)/2
	if daemonUs < 0 {
		daemonUs = 0
	}

	rows := []budgetRow{
		{Layer: "ctx", Us: ctxUs},
		{Layer: "daemon", Us: daemonUs},
		{Layer: "middleware", Us: middlewareUs},
		{Layer: "pool", Us: poolUs},
		{Layer: "constraint", Us: constraintUs},
		{Layer: "strategy", Us: strategyUs},
		{Layer: "situation", Us: situationUs},
		{Layer: "wal", Us: walUs},
	}
	sum := 0.0
	for i := range rows {
		rows[i].Share = rows[i].Us / r.perOpUs
		sum += rows[i].Us
	}
	rest := r.perOpUs - sum
	rows = append(rows, budgetRow{Layer: "unaccounted", Us: rest, Share: rest / r.perOpUs})
	l["bench.unaccounted_ratio"] = rest / r.perOpUs
	return rows
}

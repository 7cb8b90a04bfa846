package main

import (
	"fmt"
	"math/rand"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/experiment"
	"ctxres/internal/metrics"
	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
)

// paperGroups is how many experiment groups are generated per application
// and error rate; the replay cycles through them.
const paperGroups = 6

// paperCase is one seeded experiment group of one application.
type paperCase struct {
	spec experiment.AppSpec
	w    experiment.Workload
	seed int64
}

// call is one middleware call of a replay.
type call struct {
	c   *ctx.Context
	use bool
	// evals is how many times the application evaluates its situations
	// after this call: once after the last use of a step, once more for
	// every empty step that follows.
	evals int
}

// replay is one experiment group running through a fresh middleware: the
// loop of experiment.RunOnceOpts, flattened into a list of calls so the
// bench can time each one and stop on an op budget.
type replay struct {
	pc        *paperCase
	m         *middleware.Middleware
	engine    *situation.Engine
	collector *metrics.Collector
	calls     []call
	pos       int
	active    int // (step, situation) pairs with the situation active
}

func newReplay(pc *paperCase, reg *telemetry.Registry) *replay {
	strat, err := experiment.NewStrategy(experiment.DBad, rand.New(rand.NewSource(pc.seed+1)), nil)
	if err != nil {
		panic(err) // D-BAD is a known strategy
	}
	r := &replay{pc: pc, engine: pc.spec.NewEngine(), collector: metrics.NewCollector()}
	opts := []middleware.Option{middleware.WithHooks(r.collector.Hooks())}
	if reg != nil {
		opts = append(opts, middleware.WithTelemetry(reg))
	}
	r.m = middleware.New(pc.spec.NewChecker(), strat, opts...)

	// Life-cycle state is per run: clone the group's prototypes.
	steps := make([][]*ctx.Context, len(pc.w.Steps))
	for i, step := range pc.w.Steps {
		steps[i] = make([]*ctx.Context, len(step))
		for j, c := range step {
			steps[i][j] = c.Clone()
		}
	}
	use := func(step []*ctx.Context) {
		for _, c := range step {
			r.calls = append(r.calls, call{c: c, use: true})
		}
		if len(r.calls) > 0 {
			r.calls[len(r.calls)-1].evals++
		}
	}
	delay := pc.w.UseDelay
	for i, step := range steps {
		for _, c := range step {
			r.calls = append(r.calls, call{c: c})
		}
		if j := i - delay; j >= 0 {
			use(steps[j])
		}
	}
	for j := len(steps) - delay; j < len(steps); j++ {
		if j >= 0 {
			use(steps[j])
		}
	}
	return r
}

// evaluate is the application's side of a step: the situations over the
// expected part of the delivered view, as RunOnceOpts counts them.
func (r *replay) evaluate() {
	delivered := r.m.Pool().Delivered()
	expected := make([]*ctx.Context, 0, len(delivered))
	for _, c := range delivered {
		if !c.Truth.Corrupted {
			expected = append(expected, c)
		}
	}
	r.engine.Evaluate(constraint.NewSliceUniverse(expected), r.m.Now())
	for _, sit := range r.engine.Situations() {
		if r.engine.Active(sit.Name) {
			r.active++
		}
	}
}

// next performs the replay's next call; done is true (and nothing was
// performed) once the group has been replayed in full. A use that finishes
// a step includes the application's situation evaluation.
func (r *replay) next() (o outcome, done bool) {
	if r.pos == len(r.calls) {
		return outcome{}, true
	}
	cl := r.calls[r.pos]
	r.pos++
	if cl.use {
		// Discarded, inconsistent and expired are the strategy's doing.
		_, _ = r.m.Use(cl.c.ID)
		o = outcome{series: seriesUse, ops: 1}
	} else {
		_, err := r.m.Submit(cl.c)
		o = outcome{series: seriesSubmit, ops: 1, failed: failedIf(err != nil)}
	}
	for i := 0; i < cl.evals; i++ {
		r.evaluate()
	}
	return o, false
}

func (r *replay) rates() metrics.Rates { return r.collector.Snapshot(r.active) }

// paperReplay is the in-process workload: one goroutine, no daemon, no
// journal.
type paperReplay struct {
	cfg   runConfig
	cases []*paperCase
	cur   *replay
	nextC int
	// events counts situation transitions over all finished replays.
	events int
	calls  int
	sigma  []float64 // Σ size sampled every 64 calls (traced runs)
}

func newPaperReplay(cfg runConfig) workload {
	return &paperReplay{cfg: cfg}
}

func (w *paperReplay) setup() error {
	w.cases = w.cases[:0]
	for g := 0; g < paperGroups; g++ {
		for ai, spec := range []experiment.AppSpec{experiment.CallForwardingApp(), experiment.RFIDApp()} {
			for ri, rate := range []float64{0.2, 0.4} {
				seed := w.cfg.seed*1000003 + int64(g*4+ai*2+ri)
				wl, err := spec.NewWorkload(rate, rand.New(rand.NewSource(seed)))
				if err != nil {
					return fmt.Errorf("%s workload at %.1f: %w", spec.Name, rate, err)
				}
				w.cases = append(w.cases, &paperCase{spec: spec, w: wl, seed: seed})
			}
		}
	}
	return nil
}

func (w *paperReplay) step(int) outcome {
	for {
		if w.cur == nil {
			w.cur = newReplay(w.cases[w.nextC%len(w.cases)], w.cfg.reg)
			w.nextC++
		}
		o, done := w.cur.next()
		if !done {
			if w.calls++; w.cfg.traced() && w.calls%64 == 0 {
				w.sigma = append(w.sigma, float64(w.cur.m.SigmaSize()))
			}
			return o
		}
		w.events += w.cur.engine.Activations() + w.cur.engine.Deactivations()
		w.cur = nil
	}
}

// probeEnvs stops a replay of each of the four streams half way — the
// workload's state sizes — and offers the contexts each has not submitted
// yet as inputs.
func (w *paperReplay) probeEnvs() []probeEnv {
	var envs []probeEnv
	for _, pc := range w.cases[:4] {
		rp := newReplay(pc, nil)
		for rp.pos < len(rp.calls)/2 {
			rp.next()
		}
		var inputs []*ctx.Context
		for _, cl := range rp.calls[rp.pos:] {
			if !cl.use {
				inputs = append(inputs, cl.c)
			}
		}
		envs = append(envs, probeEnv{pool: rp.m.Pool(), checker: pc.spec.NewChecker(),
			situations: pc.spec.NewEngine(), weight: float64(len(rp.calls)),
			next: func() *ctx.Context {
				c := inputs[0]
				inputs = inputs[1:]
				return c
			}})
	}
	return envs
}

// finish replays every distinct group once more, twice, outside any
// timing: the rates must be the ones experiment.RunOnceOpts reports for
// the same seeded workload, and two replays must end byte-identical.
func (w *paperReplay) finish(r *result) {
	for i := 0; i < 4 && i < len(w.cases); i++ {
		pc := w.cases[i]
		name := fmt.Sprintf("%s@%d", pc.spec.Name, i)
		a, b := newReplay(pc, nil), newReplay(pc, nil)
		for _, rp := range []*replay{a, b} {
			for done := false; !done; {
				_, done = rp.next()
			}
		}
		ref, err := experiment.RunOnceOpts(pc.spec, pc.w, experiment.DBad,
			rand.New(rand.NewSource(pc.seed+1)), experiment.RunOptions{})
		r.check("rates="+name, err == nil && a.rates() == ref.Rates,
			fmt.Sprintf("replay rates %+v, RunOnceOpts %+v (err %v)", a.rates(), ref.Rates, err))
		fa, erra := a.m.Fingerprint()
		fb, errb := b.m.Fingerprint()
		r.check("fingerprint="+name, erra == nil && errb == nil && fa == fb, "two replays of one group differ")
		if i == 0 {
			r.stats = a.m.Stats()
			if db, ok := a.m.Strategy().(*strategy.DropBad); ok {
				r.layer["strategy.bad_marks_total"] = float64(db.Stats().MarkedBad)
			}
		}
	}
	// The books of the first group's replay stand for the workload's.
	if st := r.stats; st.Submitted > 0 {
		r.layer["middleware.discard_ratio"] = float64(st.Discarded) / float64(st.Submitted)
		r.layer["constraint.violations_per_1k"] = float64(st.Detected) / float64(st.Submitted) * 1000
		r.layer["strategy.discards_total"] = float64(st.Discarded)
	}
	r.layer["situation.events_total"] = float64(w.events)
	r.layer["strategy.sigma_size_p50"] = median(w.sigma)
	if w.cfg.traced() {
		registryLayers(r, false)
	}
}

func (w *paperReplay) close() {}

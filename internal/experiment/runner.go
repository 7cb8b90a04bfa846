package experiment

import (
	"fmt"
	"math/rand"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/inconsistency"
	"ctxres/internal/metrics"
	"ctxres/internal/middleware"
	"ctxres/internal/stats"
)

// RunResult is one middleware run's raw measurements.
type RunResult struct {
	Strategy StrategyName
	Rates    metrics.Rates
	Audit    *inconsistency.RuleAudit // non-nil for drop-bad runs with auditing
}

// RunOptions tune how a run invokes the middleware beyond the compared
// strategy.
type RunOptions struct {
	// Audited attaches a heuristic-rule audit (drop-bad case study).
	Audited bool
	// Parallelism is the checker worker count; <= 1 keeps the serial
	// checker. The parallel checker is proven output-equivalent, so this
	// must not change any measured outcome (pinned by
	// TestParallelCheckerNoRegression).
	Parallelism int
}

// RunOnce replays one workload through a fresh middleware configured with
// the named strategy and returns the raw metrics. The workload's prototype
// contexts are cloned, so RunOnce may be called repeatedly on the same
// workload (the paper runs all four strategies on identical streams).
func RunOnce(spec AppSpec, w Workload, name StrategyName, rng *rand.Rand, audited bool) (RunResult, error) {
	return RunOnceOpts(spec, w, name, rng, RunOptions{Audited: audited})
}

// RunOnceOpts is RunOnce with explicit run options.
func RunOnceOpts(spec AppSpec, w Workload, name StrategyName, rng *rand.Rand, opts RunOptions) (RunResult, error) {
	var audit *inconsistency.RuleAudit
	if opts.Audited {
		audit = &inconsistency.RuleAudit{}
	}
	strat, err := NewStrategy(name, rng, audit)
	if err != nil {
		return RunResult{}, err
	}
	collector := metrics.NewCollector()
	engine := spec.NewEngine()
	mwOpts := []middleware.Option{middleware.WithHooks(collector.Hooks())}
	if opts.Parallelism > 1 {
		mwOpts = append(mwOpts, middleware.WithCheckerOptions(
			middleware.CheckerOptions{Parallelism: opts.Parallelism}))
	}
	m := middleware.New(spec.NewChecker(), strat, mwOpts...)

	// Clone the prototypes: life-cycle state is per-run.
	cloned := make([][]*ctx.Context, len(w.Steps))
	for i, step := range w.Steps {
		cloned[i] = make([]*ctx.Context, len(step))
		for j, c := range step {
			cloned[i][j] = c.Clone()
		}
	}

	// Situation activation is measured over the expected (ground-truth
	// correct) part of the delivered view: corrupted contexts a strategy
	// failed to remove must not be credited with adaptive behaviour, and
	// discarding needed contexts must cost activation — the paper's
	// framing of both metrics as discarding impact.
	//
	// The sitActRate numerator is the number of (evaluation step,
	// situation) pairs with the situation active — activation *coverage*.
	// Counting raw activation events would reward strategies that discard
	// so much that situations flap (each gap re-activates), inverting the
	// metric's meaning.
	activeSteps := 0
	evaluate := func() {
		delivered := m.Pool().Delivered()
		expected := make([]*ctx.Context, 0, len(delivered))
		for _, c := range delivered {
			if !c.Truth.Corrupted {
				expected = append(expected, c)
			}
		}
		engine.Evaluate(constraint.NewSliceUniverse(expected), m.Now())
		for _, sit := range engine.Situations() {
			if engine.Active(sit.Name) {
				activeSteps++
			}
		}
	}

	use := func(step []*ctx.Context) {
		for _, c := range step {
			// Failures (discarded, inconsistent, expired) are the
			// resolution strategy's doing; the collector counts them via
			// hooks.
			_, _ = m.Use(c.ID)
		}
		evaluate()
	}

	for i, step := range cloned {
		for _, c := range step {
			if _, err := m.Submit(c); err != nil {
				return RunResult{}, fmt.Errorf("run %s step %d: %w", name, i, err)
			}
		}
		if j := i - w.UseDelay; j >= 0 {
			use(cloned[j])
		}
	}
	// Drain the tail of the window.
	for j := len(cloned) - w.UseDelay; j < len(cloned); j++ {
		if j >= 0 {
			use(cloned[j])
		}
	}

	return RunResult{
		Strategy: name,
		Rates:    collector.Snapshot(activeSteps),
		Audit:    audit,
	}, nil
}

// GroupResult holds one experiment group's normalized metrics for every
// compared strategy.
type GroupResult struct {
	Baseline metrics.Rates
	Runs     map[StrategyName]metrics.Rates
	Norm     map[StrategyName]metrics.Normalized
}

// RunGroup generates one workload and replays it under every strategy in
// names (plus OPT-R if absent, as the baseline), normalizing each run
// against OPT-R.
func RunGroup(spec AppSpec, errRate float64, names []StrategyName, seed int64) (GroupResult, error) {
	return RunGroupOpts(spec, errRate, names, seed, RunOptions{})
}

// RunGroupOpts is RunGroup with explicit run options.
func RunGroupOpts(spec AppSpec, errRate float64, names []StrategyName, seed int64, opts RunOptions) (GroupResult, error) {
	wlRNG := rand.New(rand.NewSource(seed))
	w, err := spec.NewWorkload(errRate, wlRNG)
	if err != nil {
		return GroupResult{}, fmt.Errorf("workload: %w", err)
	}

	all := names
	hasBaseline := false
	for _, n := range names {
		if n == OptR {
			hasBaseline = true
			break
		}
	}
	if !hasBaseline {
		all = append([]StrategyName{OptR}, names...)
	}

	out := GroupResult{
		Runs: make(map[StrategyName]metrics.Rates, len(all)),
		Norm: make(map[StrategyName]metrics.Normalized, len(all)),
	}
	for _, n := range all {
		// Strategy-internal randomness is seeded independently of the
		// workload so every strategy sees the identical stream.
		runOpts := opts
		runOpts.Audited = false
		res, err := RunOnceOpts(spec, w, n, rand.New(rand.NewSource(seed+1)), runOpts)
		if err != nil {
			return GroupResult{}, err
		}
		out.Runs[n] = res.Rates
	}
	out.Baseline = out.Runs[OptR]
	for n, r := range out.Runs {
		out.Norm[n] = metrics.Normalize(r, out.Baseline)
	}
	return out, nil
}

// FigureConfig parameterizes a Figure 9/10 reproduction.
type FigureConfig struct {
	// ErrRates are the controlled error rates (paper: 10%–40%).
	ErrRates []float64
	// Groups is the number of experiment groups per point (paper: 20).
	Groups int
	// Seed is the base seed; group g at rate index r uses
	// Seed + int64(r*Groups+g).
	Seed int64
	// Strategies are the compared strategies (default: the paper's four).
	Strategies []StrategyName
	// Parallelism is the checker worker count for every run; <= 1 keeps
	// the serial checker (the default and the paper's configuration).
	Parallelism int
}

// DefaultFigureConfig reproduces the paper's setting.
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{
		ErrRates:   []float64{0.1, 0.2, 0.3, 0.4},
		Groups:     20,
		Seed:       20080617,
		Strategies: ComparedStrategies(),
	}
}

// PointResult aggregates one (error rate, strategy) data point over all
// groups.
type PointResult struct {
	ErrRate    float64
	Strategy   StrategyName
	CtxUseRate stats.Summary
	SitActRate stats.Summary
}

// FigureResult is a full reproduced figure: every point of both panels.
type FigureResult struct {
	App    string
	Points []PointResult
}

// Point returns the data point for the given rate and strategy.
func (f FigureResult) Point(errRate float64, name StrategyName) (PointResult, bool) {
	for _, p := range f.Points {
		if p.ErrRate == errRate && p.Strategy == name {
			return p, true
		}
	}
	return PointResult{}, false
}

// RunFigure reproduces one figure: for every error rate it runs the
// configured number of groups, normalizes every strategy against OPT-R,
// and averages.
func RunFigure(spec AppSpec, cfg FigureConfig) (FigureResult, error) {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = ComparedStrategies()
	}
	result := FigureResult{App: spec.Name}
	type sample struct{ ctxUse, sitAct []float64 }
	for ri, rate := range cfg.ErrRates {
		samples := make(map[StrategyName]*sample, len(cfg.Strategies))
		for _, n := range cfg.Strategies {
			samples[n] = &sample{}
		}
		for g := 0; g < cfg.Groups; g++ {
			seed := cfg.Seed + int64(ri*cfg.Groups+g)
			group, err := RunGroupOpts(spec, rate, cfg.Strategies, seed,
				RunOptions{Parallelism: cfg.Parallelism})
			if err != nil {
				return FigureResult{}, fmt.Errorf("rate %.0f%% group %d: %w", rate*100, g, err)
			}
			for _, n := range cfg.Strategies {
				s := samples[n]
				s.ctxUse = append(s.ctxUse, group.Norm[n].CtxUseRate)
				s.sitAct = append(s.sitAct, group.Norm[n].SitActRate)
			}
		}
		for _, n := range cfg.Strategies {
			s := samples[n]
			result.Points = append(result.Points, PointResult{
				ErrRate:    rate,
				Strategy:   n,
				CtxUseRate: stats.Summarize(s.ctxUse),
				SitActRate: stats.Summarize(s.sitAct),
			})
		}
	}
	return result, nil
}

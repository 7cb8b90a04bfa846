// Package ctxres holds the repository-level benchmark harness: one
// testing.B benchmark per reproduced table/figure (run with
// `go test -bench=. -benchmem`), ablation benches for the design choices
// DESIGN.md calls out, and micro-benchmarks for the hot paths (incremental
// vs full checking, tracker maintenance, strategy decisions, LANDMARC
// estimation, wire codec).
//
// Figure/table benches run a reduced group count per iteration so a bench
// iteration stays around a second; the ctxbench command runs the full
// 20-group configuration.
package ctxres

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/apps/rfidmon"
	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/experiment"
	"ctxres/internal/inconsistency"
	"ctxres/internal/landmarc"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/simspace"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
)

// benchFigureConfig keeps one bench iteration small but representative.
func benchFigureConfig() experiment.FigureConfig {
	return experiment.FigureConfig{
		ErrRates:   []float64{0.2},
		Groups:     2,
		Seed:       1,
		Strategies: experiment.ComparedStrategies(),
	}
}

// BenchmarkFigure9CallForwarding regenerates Figure 9's data points
// (context use rate and situation activation rate for the Call Forwarding
// application).
func BenchmarkFigure9CallForwarding(b *testing.B) {
	spec := experiment.CallForwardingApp()
	cfg := benchFigureConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		point, ok := fig.Point(0.2, experiment.DBad)
		if !ok {
			b.Fatal("missing data point")
		}
		b.ReportMetric(point.CtxUseRate.Mean*100, "ctxUse%")
		b.ReportMetric(point.SitActRate.Mean*100, "sitAct%")
	}
}

// BenchmarkFigure10RFID regenerates Figure 10's data points (RFID data
// anomalies application).
func BenchmarkFigure10RFID(b *testing.B) {
	spec := experiment.RFIDApp()
	cfg := benchFigureConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RunFigure(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		point, ok := fig.Point(0.2, experiment.DBad)
		if !ok {
			b.Fatal("missing data point")
		}
		b.ReportMetric(point.CtxUseRate.Mean*100, "ctxUse%")
		b.ReportMetric(point.SitActRate.Mean*100, "sitAct%")
	}
}

// BenchmarkCaseStudyLandmarc regenerates the Section 5.2 case study
// (survival rate, removal precision, rule-holding rates).
func BenchmarkCaseStudyLandmarc(b *testing.B) {
	cfg := experiment.DefaultCaseStudyConfig()
	cfg.Groups = 1
	cfg.Steps = 150
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCaseStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SurvivalRate.Mean*100, "survival%")
		b.ReportMetric(res.RemovalPrecision.Mean*100, "precision%")
		b.ReportMetric(res.Rule2PrimeRate.Mean*100, "rule2'%")
	}
}

// BenchmarkAblationWindow measures the resolution-window ablation
// (Section 5.3: a zero window reduces drop-bad's effectiveness).
func BenchmarkAblationWindow(b *testing.B) {
	spec := experiment.CallForwardingApp()
	for _, delay := range []int{0, 2, 5} {
		b.Run(benchName("window", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := spec.NewWorkload(0.2, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				w.UseDelay = delay
				res, err := experiment.RunOnce(spec, w, experiment.DBad,
					rand.New(rand.NewSource(8)), false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Rates.UsedCorrupted), "corrLeak")
				b.ReportMetric(res.Rates.RemovalRecall*100, "recall%")
			}
		})
	}
}

// BenchmarkAblationBadMarking compares drop-bad with and without the
// Case-2 bad-marking.
func BenchmarkAblationBadMarking(b *testing.B) {
	spec := experiment.CallForwardingApp()
	for _, v := range []struct {
		name  string
		strat experiment.StrategyName
	}{
		{"with-bad-marking", experiment.DBad},
		{"without-bad-marking", experiment.DBadNoB},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := spec.NewWorkload(0.2, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiment.RunOnce(spec, w, v.strat,
					rand.New(rand.NewSource(8)), false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Rates.RemovalRecall*100, "recall%")
			}
		})
	}
}

// BenchmarkAblationConstraintReach compares the Section 3.1 refined
// constraint set (adjacent + skip-1 velocity pairs) against adjacent-only.
func BenchmarkAblationConstraintReach(b *testing.B) {
	abl := experiment.AblationConfig{Groups: 2, Seed: 3, ErrRate: 0.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblations(abl)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no ablation points")
		}
	}
}

// --- micro benchmarks -----------------------------------------------------

var benchStart = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func benchTrace(n int, corruptEvery int) []*ctx.Context {
	out := make([]*ctx.Context, n)
	x := 0.0
	for i := 0; i < n; i++ {
		x += 1
		if corruptEvery > 0 && i%corruptEvery == corruptEvery-1 {
			x += 10
		}
		out[i] = ctx.NewLocation("peter", benchStart.Add(time.Duration(i)*time.Second),
			ctx.Point{X: x}, ctx.WithSeq(uint64(i+1)), ctx.WithSource("t"))
	}
	return out
}

func benchChecker() *constraint.Checker {
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "vel",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.StreamWithin("a", "b", 2),
					),
					constraint.VelocityBelow("a", "b", 1.5),
				))),
	})
	return ch
}

// BenchmarkCheckerFull measures a full constraint check over a buffer of
// 64 contexts.
func BenchmarkCheckerFull(b *testing.B) {
	ch := benchChecker()
	u := constraint.NewSliceUniverse(benchTrace(64, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Check(u)
	}
}

// BenchmarkCheckerIncremental measures the incremental check for one
// addition against the same buffer — the ICSE'06 optimization the
// middleware uses on every submission.
func BenchmarkCheckerIncremental(b *testing.B) {
	ch := benchChecker()
	trace := benchTrace(64, 8)
	u := constraint.NewSliceUniverse(trace)
	added := trace[len(trace)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.CheckAddition(u, added)
	}
}

// BenchmarkTrackerAddResolve measures Σ maintenance under churn.
func BenchmarkTrackerAddResolve(b *testing.B) {
	cs := benchTrace(64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := inconsistency.NewTracker()
		for j := 1; j < len(cs); j++ {
			tr.Add(inconsistency.Inconsistency{
				Constraint: "vel",
				Link:       constraint.NewLink(cs[j-1], cs[j]),
			})
		}
		for _, c := range cs {
			tr.ResolveInvolving(c.ID)
		}
	}
}

// BenchmarkStrategies measures one full middleware run per strategy on a
// shared Call Forwarding workload.
func BenchmarkStrategies(b *testing.B) {
	spec := experiment.CallForwardingApp()
	w, err := spec.NewWorkload(0.2, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range experiment.ComparedStrategies() {
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunOnce(spec, w, name,
					rand.New(rand.NewSource(6)), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLandmarcEstimate measures one LANDMARC estimation cycle on the
// case-study field.
func BenchmarkLandmarcEstimate(b *testing.B) {
	floor := simspace.OfficeFloor()
	field, err := landmarc.GridField(floor.Width, floor.Height, 2,
		landmarc.DefaultRadio(), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		field.Estimate(ctx.Point{X: 12, Y: 7}, rng)
	}
}

// BenchmarkWorkloadGeneration measures the two applications' workload
// generators.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.Run("call-forwarding", func(b *testing.B) {
		cfg := callforward.DefaultWorkload(0.2)
		for i := 0; i < b.N; i++ {
			if _, err := callforward.Generate(cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rfid", func(b *testing.B) {
		cfg := rfidmon.DefaultWorkload(0.2)
		for i := 0; i < b.N; i++ {
			if _, err := rfidmon.Generate(cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDropBadOnUse measures one Part-2 resolution decision with a
// populated Σ.
func BenchmarkDropBadOnUse(b *testing.B) {
	cs := benchTrace(16, 0)
	vios := make([]constraint.Violation, 0, len(cs)-1)
	for j := 1; j < len(cs); j++ {
		vios = append(vios, constraint.Violation{
			Constraint: "vel",
			Link:       constraint.NewLink(cs[j-1], cs[j]),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := strategy.NewDropBad()
		s.OnAddition(nil, vios)
		b.StartTimer()
		s.OnUse(cs[len(cs)/2])
	}
}

// BenchmarkContextJSON measures the wire codec round trip.
func BenchmarkContextJSON(b *testing.B) {
	c := ctx.NewLocation("peter", benchStart, ctx.Point{X: 3.5, Y: 7.25},
		ctx.WithSource("tracker"), ctx.WithSeq(42), ctx.WithTTL(10*time.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(c)
		if err != nil {
			b.Fatal(err)
		}
		var back ctx.Context
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + string(rune('0'+n))
}

// nullSink discards spans; it isolates the span-assembly cost in
// BenchmarkSubmit from any sink I/O.
type nullSink struct{}

func (nullSink) RecordSpan(*telemetry.Span) {}

// BenchmarkSubmit measures the middleware's submission path in the three
// telemetry modes: unconfigured (must stay within noise of the seed
// pipeline — disabled telemetry takes no clock readings and allocates
// nothing), with a registry (atomic counter/histogram updates), and with
// a registry plus a span sink (per-operation span assembly on top).
func BenchmarkSubmit(b *testing.B) {
	run := func(b *testing.B, opts ...middleware.Option) {
		trace := benchTrace(128, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := middleware.New(benchChecker(), strategy.NewDropBad(), opts...)
			cloned := make([]*ctx.Context, len(trace))
			for j, c := range trace {
				cloned[j] = c.Clone()
			}
			b.StartTimer()
			for _, c := range cloned {
				if _, err := m.Submit(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("no-telemetry", func(b *testing.B) {
		run(b)
	})
	b.Run("registry", func(b *testing.B) {
		run(b, middleware.WithTelemetry(telemetry.NewRegistry()))
	})
	b.Run("registry+spans", func(b *testing.B) {
		run(b, middleware.WithTelemetry(telemetry.NewRegistry()),
			middleware.WithSpanSink(nullSink{}))
	})
}

// benchPool returns a pool holding `resident` delivered contexts one second
// apart, each available for `resident` seconds, and a source of the ones
// that follow: every arrival ends the oldest one's available period.
func benchPool(b *testing.B, resident int) (*pool.Pool, func() *ctx.Context) {
	p := pool.New()
	n := 0
	next := func() *ctx.Context {
		n++
		return ctx.NewLocation(benchSubjects[n%len(benchSubjects)], time.Unix(int64(n), 0), ctx.Point{},
			ctx.WithID(ctx.ID(fmt.Sprint("c", n))), ctx.WithTTL(time.Duration(resident)*time.Second))
	}
	for i := 0; i < resident; i++ {
		c := next()
		if err := p.Add(c); err != nil {
			b.Fatal(err)
		}
		if err := p.MarkUsed(c.ID); err != nil {
			b.Fatal(err)
		}
	}
	return p, next
}

var (
	benchResidents = []int{400, 10000, 40000}
	benchSubjects  = []string{"alice", "bob", "carol", "dave"}
)

// BenchmarkPoolSweep is the pool's share of a submit at a steady resident
// size: one context in, a sweep that expires one, a compaction every 1 000.
// The line is flat in the resident size.
func BenchmarkPoolSweep(b *testing.B) {
	for _, resident := range benchResidents {
		b.Run(fmt.Sprint("resident=", resident), func(b *testing.B) {
			p, next := benchPool(b, resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := next()
				if err := p.Add(c); err != nil {
					b.Fatal(err)
				}
				p.SweepExpired(c.Timestamp.Add(time.Second))
				if i%1000 == 999 {
					p.Compact()
				}
			}
		})
	}
}

// BenchmarkPoolUseLatest is the pool's share of a use-latest: the newest
// available context of one of four subjects, and its delivery.
func BenchmarkPoolUseLatest(b *testing.B) {
	for _, resident := range benchResidents {
		b.Run(fmt.Sprint("resident=", resident), func(b *testing.B) {
			p, _ := benchPool(b, resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := p.NewestAvailable(ctx.KindLocation, benchSubjects[i%len(benchSubjects)])
				if c == nil || p.MarkUsed(c.ID) != nil {
					b.Fatal("no newest context")
				}
			}
		})
	}
}

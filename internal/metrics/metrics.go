// Package metrics observes a middleware run and computes the paper's
// measurements:
//
//   - the number of used contexts and activated situations (the two
//     context-awareness metrics of Section 4, later normalized against the
//     OPT-R baseline into ctxUseRate and sitActRate);
//   - the ground-truth quality measures of Section 5.2: context survival
//     rate (expected contexts not discarded) and removal precision
//     (fraction of discarded contexts that were indeed corrupted).
package metrics

import (
	"sync"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/stats"
)

// Collector accumulates counters from middleware hooks. Install it with
// Hooks(); do not share one collector across middlewares.
//
// The hooks themselves run under the middleware's lock, but readers (the
// accessor methods and Snapshot) may be called from other goroutines —
// a progress reporter or status endpoint polling mid-run — so every
// field access goes through the collector's own mutex.
type Collector struct {
	mu sync.Mutex

	submittedExpected  int
	submittedCorrupted int

	usedTotal     int
	usedExpected  int
	usedCorrupted int

	discardedTotal     int
	discardedExpected  int
	discardedCorrupted int

	expired  int
	detected int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Hooks returns middleware hooks that feed this collector. Compose with
// other hooks manually if needed.
func (c *Collector) Hooks() middleware.Hooks {
	return middleware.Hooks{
		OnAccept:  c.onAccept,
		OnDeliver: c.onDeliver,
		OnDiscard: c.onDiscard,
		OnExpire:  c.onExpire,
		OnDetect:  c.onDetect,
	}
}

// Detected returns the number of inconsistencies the checker reported.
func (c *Collector) Detected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detected
}

func (c *Collector) onDetect(constraint.Violation) {
	c.mu.Lock()
	c.detected++
	c.mu.Unlock()
}

func (c *Collector) onAccept(cc *ctx.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.Truth.Corrupted {
		c.submittedCorrupted++
	} else {
		c.submittedExpected++
	}
}

func (c *Collector) onDeliver(cc *ctx.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.usedTotal++
	if cc.Truth.Corrupted {
		c.usedCorrupted++
	} else {
		c.usedExpected++
	}
}

func (c *Collector) onDiscard(cc *ctx.Context, _ middleware.DiscardReason) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.discardedTotal++
	if cc.Truth.Corrupted {
		c.discardedCorrupted++
	} else {
		c.discardedExpected++
	}
}

func (c *Collector) onExpire(*ctx.Context) {
	c.mu.Lock()
	c.expired++
	c.mu.Unlock()
}

// UsedContexts returns the number of successfully used contexts — the
// numerator of ctxUseRate.
func (c *Collector) UsedContexts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedTotal
}

// UsedExpected returns how many used contexts were actually correct.
func (c *Collector) UsedExpected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedExpected
}

// UsedCorrupted returns how many used contexts were actually corrupted —
// errors that slipped past the resolution strategy into the application.
func (c *Collector) UsedCorrupted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedCorrupted
}

// Discarded returns the total number of discarded contexts.
func (c *Collector) Discarded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discardedTotal
}

// Submitted returns the total number of accepted submissions.
func (c *Collector) Submitted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submittedExpected + c.submittedCorrupted
}

// SubmittedCorrupted returns the ground-truth number of corrupted
// submissions.
func (c *Collector) SubmittedCorrupted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submittedCorrupted
}

// SurvivalRate is the fraction of expected (correct) contexts that were
// not discarded — Section 5.2's "location context survival rate". It is 1
// when no expected contexts were submitted.
func (c *Collector) SurvivalRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.survivalRateLocked()
}

func (c *Collector) survivalRateLocked() float64 {
	if c.submittedExpected == 0 {
		return 1
	}
	return 1 - float64(c.discardedExpected)/float64(c.submittedExpected)
}

// RemovalPrecision is the fraction of discarded contexts that were indeed
// corrupted — Section 5.2's "removal precision". It is 1 when nothing was
// discarded.
func (c *Collector) RemovalPrecision() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removalPrecisionLocked()
}

func (c *Collector) removalPrecisionLocked() float64 {
	if c.discardedTotal == 0 {
		return 1
	}
	return float64(c.discardedCorrupted) / float64(c.discardedTotal)
}

// RemovalRecall is the fraction of corrupted contexts that were discarded
// (how completely the strategy removed errors). It is 1 when nothing was
// corrupted.
func (c *Collector) RemovalRecall() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removalRecallLocked()
}

func (c *Collector) removalRecallLocked() float64 {
	if c.submittedCorrupted == 0 {
		return 1
	}
	return float64(c.discardedCorrupted) / float64(c.submittedCorrupted)
}

// Rates bundles one run's raw metric values for normalization.
type Rates struct {
	UsedContexts      int     `json:"usedContexts"`
	UsedExpected      int     `json:"usedExpected"`
	Activations       int     `json:"activations"`
	SurvivalRate      float64 `json:"survivalRate"`
	RemovalPrecision  float64 `json:"removalPrecision"`
	RemovalRecall     float64 `json:"removalRecall"`
	UsedCorrupted     int     `json:"usedCorrupted"`
	DiscardedContexts int     `json:"discardedContexts"`
}

// Snapshot captures the collector plus the run's situation-activation
// count.
func (c *Collector) Snapshot(activations int) Rates {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Rates{
		UsedContexts:      c.usedTotal,
		UsedExpected:      c.usedExpected,
		Activations:       activations,
		SurvivalRate:      c.survivalRateLocked(),
		RemovalPrecision:  c.removalPrecisionLocked(),
		RemovalRecall:     c.removalRecallLocked(),
		UsedCorrupted:     c.usedCorrupted,
		DiscardedContexts: c.discardedTotal,
	}
}

// Normalized holds the paper's two headline percentages for one strategy,
// relative to the OPT-R baseline of the same workload.
type Normalized struct {
	CtxUseRate float64 `json:"ctxUseRate"`
	SitActRate float64 `json:"sitActRate"`
}

// Normalize computes ctxUseRate and sitActRate of a run against the OPT-R
// baseline run (Section 4.1: baseline metric values are set to 100%).
//
// Both metrics follow the paper's framing — a resolution strategy hurts an
// application by *discarding* contexts it needs ("any strategy, which
// discards inconsistent contexts and thus changes the contexts accessible
// to applications, would certainly affect these two metrics"). The context
// use rate therefore counts the expected (correct) contexts the
// application still managed to use; corrupted contexts a strategy failed
// to remove are reported separately (UsedCorrupted) rather than credited.
func Normalize(run, baseline Rates) Normalized {
	return Normalized{
		CtxUseRate: stats.Ratio(float64(run.UsedExpected), float64(baseline.UsedExpected)),
		SitActRate: stats.Ratio(float64(run.Activations), float64(baseline.Activations)),
	}
}

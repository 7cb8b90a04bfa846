// Package middleware implements the Cabot-style context-management
// middleware the paper's experiments run on: distributed context sources
// submit contexts; a consistency checker detects inconsistencies against
// registered constraints; a pluggable resolution strategy decides which
// contexts to discard; applications use contexts and evaluate situations
// over what was delivered.
//
// The engine is synchronous and deterministic: time is the logical time
// carried by context timestamps, and all randomness lives in the sources
// and strategies. Package internal/daemon layers the network serving path
// on top: remote sources and applications drive these same entry points
// over its line-delimited JSON protocol, and internal/source manages
// long-running in-process producers.
package middleware

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/pool"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// Use errors.
var (
	ErrNotFound     = errors.New("context not found")
	ErrDiscarded    = errors.New("context was discarded")
	ErrExpired      = errors.New("context has expired")
	ErrInconsistent = errors.New("context judged inconsistent on use")
)

// DiscardReason explains why the middleware dropped a context.
type DiscardReason int

// Discard reasons.
const (
	ReasonOnAddition DiscardReason = iota + 1 // strategy discarded at addition time
	ReasonOnUse                               // strategy refused delivery at use time
)

// String names the reason.
func (r DiscardReason) String() string {
	switch r {
	case ReasonOnAddition:
		return "on-addition"
	case ReasonOnUse:
		return "on-use"
	default:
		return "invalid"
	}
}

// Hooks receive life-cycle notifications; any field may be nil. Hooks run
// under the middleware lock: they must be fast and must not call back into
// the middleware.
type Hooks struct {
	// OnAccept fires when a submitted context is admitted (either directly
	// consistent or buffered for checking).
	OnAccept func(c *ctx.Context)
	// OnDetect fires for each inconsistency a submission introduces.
	OnDetect func(v constraint.Violation)
	// OnDiscard fires when a context is discarded.
	OnDiscard func(c *ctx.Context, reason DiscardReason)
	// OnDeliver fires when a context is successfully used.
	OnDeliver func(c *ctx.Context)
	// OnExpire fires when a buffered context expires before use.
	OnExpire func(c *ctx.Context)
	// OnCheck fires after each parallel consistency check with its
	// work-distribution report (shards dispatched, bindings pruned). It
	// does not fire on the serial path.
	OnCheck func(rep constraint.CheckReport)
}

// Stats is a snapshot of middleware counters.
type Stats struct {
	Submitted  int `json:"submitted"`
	Detected   int `json:"detected"` // inconsistencies reported by the checker
	Discarded  int `json:"discarded"`
	Delivered  int `json:"delivered"` // successful uses
	Rejected   int `json:"rejected"`  // uses refused as inconsistent
	Expired    int `json:"expired"`
	Situations int `json:"situations"` // activation events

	// Parallel-checker counters (zero on the serial path).
	Shards         int `json:"shards"`         // shard tasks dispatched to the worker pool
	PrunedBindings int `json:"prunedBindings"` // candidate bindings skipped via the kind index

	// Compaction counters (see Compact).
	Compactions    int `json:"compactions"`    // Compact calls
	CompactRemoved int `json:"compactRemoved"` // entries dropped by compaction
}

// Middleware is the context-management engine. All public methods are safe
// for concurrent use; internally they serialize on one mutex, matching the
// paper's single resolution service.
type Middleware struct {
	mu         sync.Mutex
	checker    *constraint.Checker
	strat      strategy.Strategy
	pool       *pool.Pool
	situations *situation.Engine
	// situationHook observes every situation transition, replay included
	// (see WithSituationHook).
	situationHook func(situation.Event)
	hooks         Hooks
	checkOpts     CheckerOptions
	checkKinds    map[ctx.Kind]bool // cached checker.Kinds() for snapshot pruning
	clock         time.Time
	stats         Stats

	// Durability (see journal.go). jbuf collects the records one
	// operation produces; they are appended to the journal before the
	// lock is released. journalErr is the sticky write failure: once the
	// log cannot keep up, further state-changing operations are refused.
	journal    *wal.Journal
	jbuf       []wal.Record
	journalErr error

	// Observability (see telemetry.go). tel's zero value is "off" and
	// every instrument call no-ops. curSpan is the span of the operation
	// currently holding the lock, so journalCommitLocked — which runs as
	// a deferred step of that operation — can attach the journal stage.
	telReg  *telemetry.Registry
	telSink telemetry.SpanSink
	tel     pipelineTelemetry
	curSpan *telemetry.Span
	// prov receives one ResolutionEvent per resolved violation (see
	// WithProvenance); nil keeps provenance off.
	prov *telemetry.ProvenanceRing

	// Push delivery (see delta.go). deltaKinds accumulates the kinds an
	// in-flight operation touches; notifyDeltaLocked flushes them to the
	// hook after the operation's journal commit.
	deltaHook  DeltaHook
	deltaKinds map[ctx.Kind]bool

	// Overload resilience (see admission.go). pending counts Submit
	// operations in flight — the one holding the lock plus those queued
	// behind it — and is only maintained when admission control is
	// enabled. deferredQ holds degraded-mode acknowledgements awaiting
	// their consistency checks; replaying disables the admission gates
	// while Recover drives the public entry points.
	adm         AdmissionOptions
	wd          WatchdogOptions
	health      *health.Tracker
	pending     atomic.Int64
	res         resilienceCounters
	degraded    bool
	deferredQ   []deferredSubmit
	deferredIDs map[ctx.ID]bool
	replaying   bool
}

// CheckerOptions configures how the middleware invokes the consistency
// checker.
type CheckerOptions struct {
	// Parallelism is the worker count for the parallel binding evaluator.
	// Values <= 1 keep the default serial checker; values > 1 run each
	// submission's consistency check across that many workers over an
	// immutable kind-indexed snapshot of the checking buffer. Both paths
	// return byte-identical violations (see internal/constraint), so the
	// choice is purely a throughput knob. Use
	// constraint.DefaultParallelism() for a GOMAXPROCS-sized pool.
	Parallelism int
}

// Option configures the middleware.
type Option func(*Middleware)

// WithHooks installs life-cycle hooks.
func WithHooks(h Hooks) Option {
	return func(m *Middleware) { m.hooks = h }
}

// WithCheckerOptions configures checker invocation (e.g. opts in the
// parallel binding evaluator).
func WithCheckerOptions(o CheckerOptions) Option {
	return func(m *Middleware) { m.checkOpts = o }
}

// WithSituations installs a situation engine evaluated over the delivered
// view after every successful use.
func WithSituations(e *situation.Engine) Option {
	return func(m *Middleware) { m.situations = e }
}

// WithSituationHook installs a callback invoked (under the middleware
// lock — it must be fast and must not call back in) for every situation
// transition the engine emits, including transitions re-derived while
// Recover replays the journal. Recorders use it to compare pre-crash and
// recovered activation sequences event by event.
func WithSituationHook(h func(situation.Event)) Option {
	return func(m *Middleware) { m.situationHook = h }
}

// New builds a middleware around a checker and a resolution strategy.
func New(checker *constraint.Checker, strat strategy.Strategy, opts ...Option) *Middleware {
	m := &Middleware{
		checker: checker,
		strat:   strat,
		pool:    pool.New(),
	}
	for _, opt := range opts {
		opt(m)
	}
	m.tel = newPipelineTelemetry(m.telReg, m.telSink)
	return m
}

// Pool exposes the context repository (read-mostly access for apps/tests).
func (m *Middleware) Pool() *pool.Pool { return m.pool }

// Strategy returns the installed resolution strategy.
func (m *Middleware) Strategy() strategy.Strategy { return m.strat }

// Now returns the middleware's logical clock: the latest context timestamp
// seen so far.
func (m *Middleware) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// Submit processes a context addition change: the context is validated,
// expiry is swept, and — if any constraint is relevant to its kind — it is
// checked and the strategy consulted. It returns the inconsistencies the
// submission introduced. Submit is SubmitOpts with no deadline.
func (m *Middleware) Submit(c *ctx.Context) ([]constraint.Violation, error) {
	return m.SubmitOpts(c, SubmitOptions{})
}

// SubmitOpts is Submit with per-call admission options. When admission
// control, a health tracker, or a watchdog is configured (admission.go),
// the submission passes their gates first: a full pending queue or an
// expired client deadline sheds it with ErrOverloaded, a quarantined
// source drops it with ErrQuarantined, and in degraded mode it is
// acknowledged with its consistency check deferred.
func (m *Middleware) SubmitOpts(c *ctx.Context, so SubmitOptions) (vios []constraint.Violation, err error) {
	// The durability wait is deferred first so (LIFO) it runs after the
	// lock inside submitOne is released: under group commit, concurrent
	// submissions then coalesce into one fsync instead of serializing on
	// one fsync each.
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	return m.submitAdmit(c, so, &wait)
}

// SubmitResult is one context's outcome within a SubmitBatch.
type SubmitResult struct {
	Violations []constraint.Violation
	Err        error
}

// SubmitBatch submits contexts in arrival order with per-item results,
// sharing a single durability wait: under group commit the whole batch
// rides one fsync instead of one per context (and under plain
// fsync-always each item still syncs inline, so semantics never weaken).
// Per-item admission, validation, and checking are identical to
// submitting each context alone. A durability failure fails the batch as
// a whole — once the log cannot acknowledge the records, the per-item
// results describe state a recovery may not reproduce.
func (m *Middleware) SubmitBatch(cs []*ctx.Context, so SubmitOptions) (results []SubmitResult, err error) {
	results = make([]SubmitResult, len(cs))
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	for i, c := range cs {
		results[i].Violations, results[i].Err = m.submitAdmit(c, so, &wait)
	}
	return results, nil
}

// submitAdmit validates and admits one submission and runs its locked
// pipeline, accumulating the durability obligation into wait.
func (m *Middleware) submitAdmit(c *ctx.Context, so SubmitOptions, wait *commitWait) ([]constraint.Violation, error) {
	if c == nil {
		return nil, errors.New("submit: nil context")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	release, err := m.admit()
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", c.ID, err)
	}
	defer release()
	return m.submitOne(c, so, wait)
}

// submitOne is the under-lock portion of one submission.
func (m *Middleware) submitOne(c *ctx.Context, so SubmitOptions, wait *commitWait) (vios []constraint.Violation, err error) {
	opStart := m.tel.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.tel.startSpan("submit", string(c.ID), opStart, so.Trace)
	m.curSpan = sp
	outcome := "accepted"
	// Registered before the journal-commit defer so that (LIFO) it runs
	// after the commit: the span then includes the journal_append stage.
	defer func() {
		if err != nil {
			outcome = submitErrOutcome(err)
		}
		m.tel.opDone("submit", opStart, sp, outcome)
		m.curSpan = nil
	}()
	defer m.notifyDeltaLocked()
	defer m.journalCommitLocked(&err, wait)
	if err := m.journalHealthLocked(); err != nil {
		return nil, err
	}
	if err := m.gateLocked(c, so); err != nil {
		return nil, err
	}
	if m.degraded {
		if err := m.deferSubmitLocked(c); err != nil {
			return nil, err
		}
		outcome = "deferred"
		return nil, nil
	}

	if c.Timestamp.After(m.clock) {
		m.clock = c.Timestamp
	}
	m.sweepLocked()
	vios, err = m.processSubmitLocked(c, sp, false)
	if err != nil {
		return nil, err
	}
	if len(vios) > 0 {
		outcome = "inconsistent"
	}
	return vios, nil
}

// processSubmitLocked runs the inline pipeline for one admitted context:
// pool insertion, consistency check, strategy resolution, accounting,
// hooks. The fallible stages (check, resolve — the ones a watchdog can
// abort) run before any counter or journal record is produced, so an
// abort unwinds via rollbackSubmitLocked without touching the log.
// deferred marks catch-up replays of degraded-mode submissions, whose
// submit accounting already happened at acknowledgement time.
func (m *Middleware) processSubmitLocked(c *ctx.Context, sp *telemetry.Span, deferred bool) ([]constraint.Violation, error) {
	relevant := m.checker.Relevant(c.Kind)
	if !relevant {
		// Part 1 fast path: irrelevant to every constraint — directly
		// consistent and immediately available.
		if err := c.SetState(ctx.Consistent); err != nil {
			return nil, fmt.Errorf("submit %s: %w", c.ID, err)
		}
	}
	if err := m.pool.Add(c); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	m.deltaMark(c.Kind)
	var vios []constraint.Violation
	var out strategy.Outcome
	var resolveStart time.Time
	if relevant {
		checkStart := m.tel.now()
		var cerr error
		vios, cerr = m.checkGuardedLocked(c)
		m.tel.stageDone(sp, telemetry.StageCheck, checkStart)
		if cerr != nil {
			return nil, m.rollbackSubmitLocked(c, deferred, cerr)
		}
		resolveStart = m.tel.now()
		out, cerr = m.resolveAdditionLocked(c, vios)
		if cerr != nil {
			m.tel.stageDone(sp, telemetry.StageResolve, resolveStart)
			return nil, m.rollbackSubmitLocked(c, deferred, cerr)
		}
	}
	if !deferred {
		m.stats.Submitted++
		m.tel.submits.Inc()
		m.jAppend(wal.Record{Type: wal.RecordSubmit, Context: c})
	}
	if m.hooks.OnAccept != nil {
		m.hooks.OnAccept(c)
	}
	if relevant {
		m.stats.Detected += len(vios)
		m.tel.detected.Add(uint64(len(vios)))
		for _, v := range vios {
			m.tel.violations.With(v.Constraint).Inc()
		}
		if m.hooks.OnDetect != nil {
			for _, v := range vios {
				m.hooks.OnDetect(v)
			}
		}
	}
	m.observeHealthLocked(c, len(vios))
	if relevant {
		m.applyLocked(out, ReasonOnAddition)
		m.tel.stageDone(sp, telemetry.StageResolve, resolveStart)
		decision := "keep"
		if len(out.Discard) > 0 {
			decision = "discard"
		}
		m.tel.decisions.With(decision).Inc()
		if len(vios) > 0 {
			m.emitResolutionLocked(sp, vios, out.Discard)
		}
	}
	return vios, nil
}

// emitResolutionLocked records the provenance of one resolution: one
// ResolutionEvent per violation the strategy just resolved, appended to
// the provenance ring and — for the first violation — attached to the
// operation's span, so the resolve span itself names the constraint, the
// strategy, and the discarded contexts.
func (m *Middleware) emitResolutionLocked(sp *telemetry.Span, vios []constraint.Violation, discarded []*ctx.Context) {
	if m.prov == nil && sp == nil {
		return
	}
	var ids []string
	if len(discarded) > 0 {
		ids = make([]string, len(discarded))
		for i, d := range discarded {
			ids[i] = string(d.ID)
		}
	}
	for i, v := range vios {
		ev := telemetry.ResolutionEvent{
			Constraint: v.Constraint,
			Strategy:   m.strat.Name(),
			Discarded:  ids,
			Clock:      m.clock,
		}
		if sp != nil {
			ev.TraceID = sp.TraceID
		}
		bound := v.Link.Contexts()
		if len(bound) > 0 {
			ev.Violating = make([]string, len(bound))
			for j, c := range bound {
				ev.Violating[j] = string(c.ID)
			}
		}
		m.prov.Append(ev)
		if i == 0 && sp != nil {
			first := ev
			sp.Resolution = &first
		}
	}
}

// Use processes a context deletion change: the application asks to consume
// the identified context. On success the context is returned and counted
// as used; situations are re-evaluated over the delivered view.
func (m *Middleware) Use(id ctx.ID) (*ctx.Context, error) {
	return m.UseTrace(id, telemetry.TraceContext{})
}

// UseTrace is Use under a distributed trace context: the use's pipeline
// span joins the caller's trace.
func (m *Middleware) UseTrace(id ctx.ID, tr telemetry.TraceContext) (c *ctx.Context, err error) {
	opStart := m.tel.now()
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.tel.startSpan("use", string(id), opStart, tr)
	m.curSpan = sp
	defer func() {
		m.tel.opDone("use", opStart, sp, useOutcome(err))
		m.curSpan = nil
	}()
	defer m.notifyDeltaLocked()
	defer m.journalCommitLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return nil, err
	}
	if err := m.catchUpLocked(sp); err != nil {
		return nil, err
	}
	m.sweepLocked()
	return m.useLocked(id)
}

// UseLatest finds the newest available context of the given kind and
// subject (empty subject matches any) and uses it. It returns ErrNotFound
// when nothing matches.
func (m *Middleware) UseLatest(kind ctx.Kind, subject string) (*ctx.Context, error) {
	return m.UseLatestTrace(kind, subject, telemetry.TraceContext{})
}

// UseLatestTrace is UseLatest under a distributed trace context.
func (m *Middleware) UseLatestTrace(kind ctx.Kind, subject string, tr telemetry.TraceContext) (c *ctx.Context, err error) {
	opStart := m.tel.now()
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.tel.startSpan("use_latest", string(kind)+"/"+subject, opStart, tr)
	m.curSpan = sp
	defer func() {
		m.tel.opDone("use_latest", opStart, sp, useOutcome(err))
		m.curSpan = nil
	}()
	defer m.notifyDeltaLocked()
	defer m.journalCommitLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return nil, err
	}
	if err := m.catchUpLocked(sp); err != nil {
		return nil, err
	}
	m.sweepLocked()
	if c := m.pool.NewestAvailable(kind, subject); c != nil {
		return m.useLocked(c.ID)
	}
	return nil, fmt.Errorf("use latest %s/%s: %w", kind, subject, ErrNotFound)
}

// useLocked uses a context. Its callers have swept at the current clock:
// one sweep an operation.
func (m *Middleware) useLocked(id ctx.ID) (*ctx.Context, error) {
	c, ok := m.pool.Get(id)
	if !ok {
		return nil, fmt.Errorf("use %s: %w", id, ErrNotFound)
	}
	if m.pool.Discarded(id) {
		return nil, fmt.Errorf("use %s: %w", id, ErrDiscarded)
	}
	if c.Expired(m.clock) {
		return nil, fmt.Errorf("use %s: %w", id, ErrExpired)
	}
	if m.pool.Used(id) {
		// Already consumed once: re-reads are free and do not re-enter the
		// resolution process.
		return c, nil
	}

	// The use reached the resolution process: journal it as a command.
	// Re-reads and the error returns above are read-only, so they need no
	// record; everything from here on is re-derived deterministically on
	// replay.
	m.jAppend(wal.Record{Type: wal.RecordUse, ID: id})

	resolveStart := m.tel.now()
	usable, out, rerr := m.resolveUseLocked(c)
	if rerr != nil {
		// The strategy panicked mid-use (watchdog containment): drop the
		// queued use record — the use never reached a decision, so replay
		// must not re-attempt it — and journal the abort instead.
		m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
		m.dropBufferedRecordLocked(wal.RecordUse, id)
		m.jAppend(wal.Record{Type: wal.RecordCheckFail, ID: id, Reason: rerr.Error()})
		m.res.checkPanics.Add(1)
		m.tel.checkAborts.With("panic").Inc()
		return nil, fmt.Errorf("use %s: %w", id, rerr)
	}
	m.applyLocked(out, ReasonOnUse)
	m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
	decision := "deliver"
	if !usable {
		decision = "reject"
	}
	m.tel.decisions.With(decision).Inc()
	if !usable {
		m.stats.Rejected++
		m.tel.rejected.Inc()
		return nil, fmt.Errorf("use %s: %w", id, ErrInconsistent)
	}
	if !c.State().Terminal() {
		if err := c.SetState(ctx.Consistent); err != nil {
			return nil, fmt.Errorf("use %s: %w", id, err)
		}
	}
	if err := m.pool.MarkUsed(id); err != nil {
		return nil, fmt.Errorf("use: %w", err)
	}
	m.stats.Delivered++
	m.tel.delivered.Inc()
	if m.hooks.OnDeliver != nil {
		m.hooks.OnDeliver(c)
	}
	m.evaluateSituationsLocked()
	return c, nil
}

// EvaluateSituations forces a situation evaluation over the delivered view
// (normally done automatically after each delivery) and returns the
// transitions.
func (m *Middleware) EvaluateSituations() []situation.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evaluateSituationsLocked()
}

func (m *Middleware) evaluateSituationsLocked() []situation.Event {
	if m.situations == nil {
		return nil
	}
	u := constraint.NewSliceUniverse(m.pool.Delivered())
	events := m.situations.Evaluate(u, m.clock)
	for _, ev := range events {
		if ev.Type == situation.Activated {
			m.stats.Situations++
			m.tel.situations.Inc()
		}
		if m.situationHook != nil {
			m.situationHook(ev)
		}
	}
	return events
}

// AdvanceTo moves the logical clock forward (e.g. to expire contexts at
// the end of a run) and sweeps expiry. Moving backwards is a no-op.
func (m *Middleware) AdvanceTo(now time.Time) {
	var wait commitWait
	defer m.commitDurable(&wait, nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.notifyDeltaLocked()
	defer m.journalCommitLocked(nil, &wait)
	// Deferred checks replay before the clock moves, so their recorded
	// sweep points stay behind it (and match the journal's record order).
	_ = m.catchUpLocked(nil)
	if now.After(m.clock) {
		m.clock = now
		t := now
		m.jAppend(wal.Record{Type: wal.RecordAdvance, Time: &t})
	}
	m.sweepLocked()
}

// Compact drops terminally discarded and expired entries from the pool,
// reclaiming memory on long-running daemons (counters and the delivered
// view are unaffected; see pool.Compact). It returns the number of entries
// removed.
func (m *Middleware) Compact() (removed int, err error) {
	opStart := m.tel.now()
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.tel.startSpan("compact", "", opStart, telemetry.TraceContext{})
	m.curSpan = sp
	defer func() {
		outcome := "compacted"
		if err != nil {
			outcome = "error"
		}
		m.tel.opDone("compact", opStart, sp, outcome)
		m.curSpan = nil
	}()
	defer m.notifyDeltaLocked()
	defer m.journalCommitLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return 0, err
	}
	if err := m.catchUpLocked(sp); err != nil {
		return 0, err
	}
	m.sweepLocked()
	removed = m.pool.Compact()
	m.stats.Compactions++
	m.stats.CompactRemoved += removed
	m.tel.compactions.Inc()
	m.tel.compactRemoved.Add(uint64(removed))
	m.jAppend(wal.Record{Type: wal.RecordCompact})
	return removed, nil
}

func (m *Middleware) sweepLocked() { m.sweepAtLocked(m.clock) }

// sweepAtLocked expires entries as of the given logical time. Ordinary
// operations sweep at the current clock; degraded-mode catch-up sweeps
// forward to each deferred submission's acknowledgement-time clock to
// replay the inline path's exact expiry sequence.
func (m *Middleware) sweepAtLocked(now time.Time) {
	for _, c := range m.pool.SweepExpired(now) {
		m.stats.Expired++
		m.tel.expired.Inc()
		m.deltaMark(c.Kind)
		m.jAppend(wal.Record{Type: wal.RecordExpire, ID: c.ID})
		m.strat.OnExpire(c)
		if m.health != nil {
			m.health.Observe(c.Source, health.Expired, now)
		}
		if m.hooks.OnExpire != nil {
			m.hooks.OnExpire(c)
		}
	}
}

func (m *Middleware) applyLocked(out strategy.Outcome, reason DiscardReason) {
	for _, d := range out.Discard {
		if m.pool.Discarded(d.ID) {
			continue
		}
		if err := m.pool.Discard(d.ID); err != nil {
			continue // context unknown to the pool (strategy-internal)
		}
		if !d.State().Terminal() {
			// Undecided or bad → inconsistent; both transitions are legal.
			_ = d.SetState(ctx.Inconsistent)
		}
		m.stats.Discarded++
		m.deltaMark(d.Kind)
		m.tel.discards.With(reason.String()).Inc()
		m.jAppend(wal.Record{Type: wal.RecordDiscard, ID: d.ID, Reason: reason.String()})
		if m.health != nil {
			// The strategy judged this context the culprit: score its
			// source with a bad mark.
			m.health.Observe(d.Source, health.Bad, m.clock)
		}
		if m.hooks.OnDiscard != nil {
			m.hooks.OnDiscard(d, reason)
		}
	}
}

// Stats returns a snapshot of the counters.
func (m *Middleware) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

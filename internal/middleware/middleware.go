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
// over its line-delimited JSON protocol.
package middleware

import (
	"errors"
	"fmt"
	"slices"
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

// Stats is a snapshot of middleware counters.
type Stats struct {
	Submitted  int `json:"submitted"`
	Detected   int `json:"detected"` // inconsistencies reported by the checker
	Discarded  int `json:"discarded"`
	Delivered  int `json:"delivered"` // successful uses
	Rejected   int `json:"rejected"`  // uses refused as inconsistent
	Expired    int `json:"expired"`
	Situations int `json:"situations"` // activation events

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
	hook       Hook
	clock      time.Time
	stats      Stats

	// events holds the facts of the operation holding the lock until
	// flushLocked hands them to the sinks (see events.go).
	events []Event

	// Durability (see journal.go). journalErr is the sticky write
	// failure: once the log cannot keep up, further state-changing
	// operations are refused.
	journal    *wal.Journal
	journalErr error

	// Observability (see telemetry.go). tel's zero value is "off" and
	// every instrument call no-ops. curSpan is the span of the operation
	// currently holding the lock, so flushLocked — which runs as a
	// deferred step of that operation — can attach the journal stage.
	telReg  *telemetry.Registry
	telSink telemetry.SpanSink
	tel     pipelineTelemetry
	curSpan *telemetry.Span
	// prov receives one ResolutionEvent per resolved violation (see
	// WithProvenance); nil keeps provenance off.
	prov *telemetry.ProvenanceRing

	// Push delivery: deltaHook hears the kinds each operation touched.
	deltaHook DeltaHook

	// Overload resilience (see admission.go). pending counts Submit
	// operations in flight — the one holding the lock plus those queued
	// behind it — and is only maintained when admission control is
	// enabled; queueShed counts those shed before taking the lock, res
	// the rest. replaying disables the admission gates while Recover
	// drives the public entry points.
	adm       AdmissionOptions
	wd        WatchdogOptions
	health    *health.Tracker
	pending   atomic.Int64
	queueShed atomic.Int64
	res       ResilienceStats
	replaying bool
}

// Option configures the middleware.
type Option func(*Middleware)

// WithSituations installs a situation engine evaluated over the delivered
// view after every successful use.
func WithSituations(e *situation.Engine) Option {
	return func(m *Middleware) { m.situations = e }
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
	if bn, ok := strat.(strategy.BadMarkNotifier); ok {
		// Bad-marking is a strategy-internal mutation the middleware never
		// sees otherwise. The hook fires inside strat.OnUse, under the lock.
		bn.SetBadMarkHook(func(c *ctx.Context) { m.emit(Event{Type: EventBadMark, Context: c}) })
	}
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
// expired client deadline sheds it with ErrOverloaded, and a quarantined
// source drops it with ErrQuarantined.
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
	m.curSpan = m.tel.startSpan("submit", string(c.ID), opStart, so.Trace)
	ok := "accepted"
	// Registered before the flush defer so that (LIFO) it runs after the
	// journal commit: the span then includes the journal_append stage.
	defer func() { m.opDone("submit", opStart, outcome(err, ok)) }()
	defer m.flushLocked(&err, wait)
	if err := m.journalHealthLocked(); err != nil {
		return nil, err
	}
	if err := m.gateLocked(c, so); err != nil {
		return nil, err
	}
	if c.Timestamp.After(m.clock) {
		m.clock = c.Timestamp
	}
	m.sweepLocked()

	// Pool insertion, consistency check, strategy resolution. The fallible
	// stages (check, resolve — the ones a watchdog can abort) run before
	// the accept event, so an abort unwinds via rollbackSubmitLocked
	// without a submit record.
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
	var out strategy.Outcome
	var resolveStart time.Time
	if relevant {
		checkStart := m.tel.now()
		var cerr error
		vios, cerr = m.checkGuardedLocked(c)
		m.tel.stageDone(m.curSpan, telemetry.StageCheck, checkStart)
		if cerr != nil {
			return nil, m.rollbackSubmitLocked(c, cerr)
		}
		resolveStart = m.tel.now()
		out, cerr = m.resolveAdditionLocked(c, vios)
		if cerr != nil {
			m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
			return nil, m.rollbackSubmitLocked(c, cerr)
		}
	}
	m.emit(Event{Type: EventAccept, Context: c, Checked: relevant})
	for _, v := range vios {
		m.emit(Event{Type: EventDetect, Context: c, Violation: v})
	}
	m.applyLocked(out, ReasonOnAddition) // no-op for an unchecked context
	m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
	if len(vios) > 0 {
		ok = "inconsistent"
	}
	return vios, nil
}

// Use processes a context deletion change: the application asks to consume
// the identified context. On success the context is returned and counted
// as used; situations are re-evaluated over the delivered view.
func (m *Middleware) Use(id ctx.ID) (*ctx.Context, error) {
	return m.UseTrace(id, telemetry.TraceContext{})
}

// UseTrace is Use under a distributed trace context: the use's pipeline
// span joins the caller's trace.
func (m *Middleware) UseTrace(id ctx.ID, tr telemetry.TraceContext) (*ctx.Context, error) {
	return m.use("use", id, "", "", tr)
}

// UseLatest finds the newest available context of the given kind and
// subject (empty subject matches any) and uses it. It returns ErrNotFound
// when nothing matches.
func (m *Middleware) UseLatest(kind ctx.Kind, subject string) (*ctx.Context, error) {
	return m.UseLatestTrace(kind, subject, telemetry.TraceContext{})
}

// UseLatestTrace is UseLatest under a distributed trace context.
func (m *Middleware) UseLatestTrace(kind ctx.Kind, subject string, tr telemetry.TraceContext) (*ctx.Context, error) {
	return m.use("use_latest", "", kind, subject, tr)
}

// use runs one use operation: of id, or for op "use_latest" of the newest
// available context of kind and subject.
func (m *Middleware) use(op string, id ctx.ID, kind ctx.Kind, subject string, tr telemetry.TraceContext) (c *ctx.Context, err error) {
	latest := op == "use_latest"
	key := string(id)
	if latest && m.tel.sink != nil { // the key only names a recorded span
		key = string(kind) + "/" + subject
	}
	opStart := m.tel.now()
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.curSpan = m.tel.startSpan(op, key, opStart, tr)
	defer func() { m.opDone(op, opStart, outcome(err, "delivered")) }()
	defer m.flushLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return nil, err
	}
	m.sweepLocked()
	if latest {
		c := m.pool.NewestAvailable(kind, subject)
		if c == nil {
			return nil, fmt.Errorf("use latest %s/%s: %w", kind, subject, ErrNotFound)
		}
		id = c.ID
	}
	return m.useLocked(id)
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
	at := len(m.events)
	m.emit(Event{Type: EventUse, Context: c})

	resolveStart := m.tel.now()
	usable, out, rerr := m.resolveUseLocked(c)
	if rerr != nil {
		// The strategy panicked mid-use (watchdog containment): drop the
		// use event — the use never reached a decision, so replay must not
		// re-attempt it — and journal the abort instead.
		m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
		m.events = slices.Delete(m.events, at, at+1)
		m.emit(Event{Type: EventCheckAbort, Context: c, Err: rerr})
		return nil, fmt.Errorf("use %s: %w", id, rerr)
	}
	m.applyLocked(out, ReasonOnUse)
	m.tel.stageDone(m.curSpan, telemetry.StageResolve, resolveStart)
	if !usable {
		m.emit(Event{Type: EventReject, Context: c})
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
	m.emit(Event{Type: EventDeliver, Context: c})
	m.evaluateSituationsLocked()
	return c, nil
}

// evaluateSituationsLocked re-evaluates the situations over the delivered
// view; each delivery runs it.
func (m *Middleware) evaluateSituationsLocked() {
	if m.situations == nil {
		return
	}
	u := constraint.NewSliceUniverse(m.pool.Delivered())
	for _, ev := range m.situations.Evaluate(u, m.clock) {
		m.emit(Event{Type: EventSituation, Situation: ev})
	}
}

// Situations reports the activation state of every situation of the
// installed engine, read under the lock that deliveries update it under.
// It is empty without an engine.
func (m *Middleware) Situations() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	active := make(map[string]bool)
	if m.situations != nil {
		for _, sit := range m.situations.Situations() {
			active[sit.Name] = m.situations.Active(sit.Name)
		}
	}
	return active
}

// AdvanceTo moves the logical clock forward (e.g. to expire contexts at
// the end of a run) and sweeps expiry. Moving backwards is a no-op.
func (m *Middleware) AdvanceTo(now time.Time) {
	var wait commitWait
	defer m.commitDurable(&wait, nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.flushLocked(nil, &wait)
	if now.After(m.clock) {
		m.clock = now
		m.emit(Event{Type: EventAdvance})
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
	m.curSpan = m.tel.startSpan("compact", "", opStart, telemetry.TraceContext{})
	defer func() { m.opDone("compact", opStart, outcome(err, "compacted")) }()
	defer m.flushLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return 0, err
	}
	m.sweepLocked()
	removed = m.pool.Compact()
	m.emit(Event{Type: EventCompact, N: removed})
	return removed, nil
}

// sweepLocked expires entries as of the current logical clock.
func (m *Middleware) sweepLocked() {
	for _, c := range m.pool.SweepExpired(m.clock) {
		m.emit(Event{Type: EventExpire, Context: c})
		m.strat.OnExpire(c)
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
		m.emit(Event{Type: EventDiscard, Context: d, Reason: reason})
	}
}

// Stats returns a snapshot of the counters.
func (m *Middleware) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

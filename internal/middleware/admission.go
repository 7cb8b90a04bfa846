// Overload resilience for the processing pipeline: admission control
// (bounded submit queue with deadline-aware load shedding), a degraded
// mode that defers consistency checking under sustained pressure and
// catches up in batch once load drops, per-source circuit breakers
// (internal/health), and a watchdog that bounds the consistency check and
// strategy resolution, containing stuck or panicking evaluations as
// typed, counted, journaled failures.
//
// Every mechanism here is opt-in: a middleware built without
// WithAdmission, WithHealth, or WithWatchdog behaves byte-identically to
// one that predates this file.
//
// Degraded-mode equivalence. While degraded, Submit acknowledges a
// context without processing it: the context is queued (not added to the
// pool), no expiry sweep runs, and the logical clock at acknowledgement
// time is recorded alongside it. Catch-up replays the queue in arrival
// order, sweeping expiry forward to each entry's recorded clock before
// running the ordinary inline pipeline — exactly the operation sequence
// the always-check path would have executed — so the resulting pool,
// strategy state (Σ), and counters are byte-identical to never having
// degraded (TestDegradedDifferential pins this). Read operations (Use,
// UseLatest, AdvanceTo, Compact, Checkpoint) force a catch-up first, so
// applications never observe half-caught-up state.
package middleware

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/pool"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// Admission and watchdog errors. The daemon maps each to a typed protocol
// code so clients can distinguish shed load (retry later, elsewhere) from
// rejected data (do not retry).
var (
	// ErrOverloaded rejects a submission the middleware cannot take on:
	// the pending-submit queue is full, or the client's deadline passed
	// before processing began.
	ErrOverloaded = errors.New("middleware overloaded")
	// ErrQuarantined drops a submission because its source's circuit
	// breaker is open (see internal/health).
	ErrQuarantined = errors.New("context source quarantined")
	// ErrCheckTimeout aborts a submission whose consistency check
	// exceeded the watchdog timeout.
	ErrCheckTimeout = errors.New("consistency check timed out")
	// ErrCheckFailed aborts an operation whose check or strategy
	// resolution panicked (recovered by the watchdog).
	ErrCheckFailed = errors.New("check aborted by recovered panic")
)

// SubmitOptions carries per-call admission parameters for SubmitOpts.
type SubmitOptions struct {
	// Deadline, when non-zero, sheds the submission with ErrOverloaded if
	// its processing has not started by then: work that would complete
	// past the point the client stops caring is not worth starting. The
	// deadline is checked against the wall clock once the submission
	// reaches the front of the queue, never mid-check.
	Deadline time.Time

	// Trace is the distributed trace context the submission arrived
	// under (the caller's span as parent). The zero value means
	// untraced; when set and a span sink is installed, the submission's
	// pipeline span joins the trace and every WAL record it appends is
	// stamped with the trace.
	Trace telemetry.TraceContext
}

// AdmissionOptions bounds the submit queue and configures degraded mode.
// The zero value disables both.
type AdmissionOptions struct {
	// MaxPending caps concurrently pending Submit operations (the one
	// being processed plus those queued behind the middleware lock).
	// Submissions beyond the cap are shed immediately with ErrOverloaded,
	// without blocking. 0 means unbounded.
	MaxPending int
	// DegradeAt enters degraded mode when the pending-submit count
	// reaches it: submissions are acknowledged and journaled but their
	// consistency checks are deferred until load drops (see the package
	// comment for the equivalence argument). 0 disables degraded mode.
	DegradeAt int
	// ResumeAt leaves degraded mode (running the deferred checks in
	// batch) once the pending count falls back to it. Values >= DegradeAt
	// are clamped to DegradeAt-1 so the mode cannot flap on one arrival.
	ResumeAt int
}

func (o AdmissionOptions) enabled() bool { return o.MaxPending > 0 || o.DegradeAt > 0 }

func (o AdmissionOptions) resumeAt() int {
	if o.ResumeAt >= o.DegradeAt {
		return o.DegradeAt - 1
	}
	return o.ResumeAt
}

// WithAdmission enables admission control.
func WithAdmission(o AdmissionOptions) Option {
	return func(m *Middleware) { m.adm = o }
}

// WatchdogOptions bounds pipeline stages. The zero value disables the
// watchdog.
type WatchdogOptions struct {
	// CheckTimeout bounds one submission's consistency check. A check
	// still running when it elapses is abandoned (the computation runs on
	// a snapshot and its result is discarded) and the submission is
	// rolled back with ErrCheckTimeout. A non-zero timeout also arms
	// panic containment: a panic in the check or in the strategy's
	// OnAddition/OnUse is recovered and converted to ErrCheckFailed
	// instead of crashing the process. 0 disables both.
	CheckTimeout time.Duration
}

// WithWatchdog enables the check watchdog and panic containment.
func WithWatchdog(o WatchdogOptions) Option {
	return func(m *Middleware) { m.wd = o }
}

// WithHealth installs a per-source health tracker: every submission is
// gated on its source's circuit breaker (open breaker → ErrQuarantined),
// and check outcomes, strategy discards, and expiries feed the source's
// sliding score window. Breaker time is the middleware's logical clock,
// so tests replay deterministically.
func WithHealth(t *health.Tracker) Option {
	return func(m *Middleware) { m.health = t }
}

// resilienceCounters are the overload-control counters. They are atomics
// because queue-full shedding happens before the middleware lock is
// taken; they are deliberately NOT part of the journaled Stats struct —
// shed and quarantined submissions never reach the log, so a recovery
// cross-check against them could never balance.
type resilienceCounters struct {
	overloadShed   atomic.Int64
	deadlineShed   atomic.Int64
	quarantined    atomic.Int64
	deferredChecks atomic.Int64
	catchUps       atomic.Int64
	degradedEnters atomic.Int64
	checkTimeouts  atomic.Int64
	checkPanics    atomic.Int64
}

// ResilienceStats is a snapshot of the overload-control counters (all
// zero unless the corresponding mechanisms are enabled).
type ResilienceStats struct {
	// OverloadShed counts submissions shed because the pending queue was
	// full; DeadlineShed those shed because the client deadline had
	// already passed when processing would have started.
	OverloadShed int64 `json:"overloadShed"`
	DeadlineShed int64 `json:"deadlineShed"`
	// Quarantined counts submissions dropped at their source's open
	// circuit breaker.
	Quarantined int64 `json:"quarantined"`
	// DeferredChecks counts submissions acknowledged in degraded mode;
	// CatchUps the batches that later ran their checks; DegradedEnters
	// the transitions into degraded mode.
	DeferredChecks int64 `json:"deferredChecks"`
	CatchUps       int64 `json:"catchUps"`
	DegradedEnters int64 `json:"degradedEnters"`
	// CheckTimeouts and CheckPanics count watchdog aborts.
	CheckTimeouts int64 `json:"checkTimeouts"`
	CheckPanics   int64 `json:"checkPanics"`
	// Degraded and DeferredPending describe the current degraded state;
	// Pending is the number of Submit operations currently in flight.
	Degraded        bool `json:"degraded"`
	DeferredPending int  `json:"deferredPending"`
	Pending         int  `json:"pending"`
}

// Resilience returns a snapshot of the overload-control counters.
func (m *Middleware) Resilience() ResilienceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ResilienceStats{
		OverloadShed:    m.res.overloadShed.Load(),
		DeadlineShed:    m.res.deadlineShed.Load(),
		Quarantined:     m.res.quarantined.Load(),
		DeferredChecks:  m.res.deferredChecks.Load(),
		CatchUps:        m.res.catchUps.Load(),
		DegradedEnters:  m.res.degradedEnters.Load(),
		CheckTimeouts:   m.res.checkTimeouts.Load(),
		CheckPanics:     m.res.checkPanics.Load(),
		Degraded:        m.degraded,
		DeferredPending: len(m.deferredQ),
		Pending:         int(m.pending.Load()),
	}
}

// HealthSnapshot returns the health tracker's per-source scores, or nil
// when no tracker is installed.
func (m *Middleware) HealthSnapshot() *health.Snapshot {
	if m.health == nil {
		return nil
	}
	s := m.health.Snapshot()
	return &s
}

// Degraded reports whether consistency checking is currently deferred.
func (m *Middleware) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// admit applies the pending-submit cap before the lock is taken, so a
// full queue sheds in O(1) without joining it. It returns the release
// function that retires this operation from the count.
func (m *Middleware) admit() (release func(), err error) {
	if !m.adm.enabled() {
		return func() {}, nil
	}
	n := m.pending.Add(1)
	if m.adm.MaxPending > 0 && int(n) > m.adm.MaxPending {
		m.pending.Add(-1)
		m.res.overloadShed.Add(1)
		m.tel.shed.With("queue").Inc()
		return nil, fmt.Errorf("queue full (%d pending, cap %d): %w", n-1, m.adm.MaxPending, ErrOverloaded)
	}
	return func() { m.pending.Add(-1) }, nil
}

// gateLocked runs the under-lock admission gates, in order: client
// deadline, source quarantine, degraded-mode entry/exit. All are bypassed
// during recovery replay — the journal only contains submissions that
// passed them live, and replay must not second-guess it.
func (m *Middleware) gateLocked(c *ctx.Context, so SubmitOptions) error {
	if m.replaying {
		return nil
	}
	if !so.Deadline.IsZero() && time.Now().After(so.Deadline) {
		m.res.deadlineShed.Add(1)
		m.tel.shed.With("deadline").Inc()
		return fmt.Errorf("submit %s: client deadline passed before processing began: %w", c.ID, ErrOverloaded)
	}
	if m.health != nil {
		now := m.clock
		if c.Timestamp.After(now) {
			now = c.Timestamp
		}
		if !m.health.Allow(c.Source, now) {
			// Dropped before any state change or journal record, so the
			// quarantine is invisible to recovery.
			m.res.quarantined.Add(1)
			return fmt.Errorf("submit %s: source %q: %w", c.ID, c.Source, ErrQuarantined)
		}
	}
	if m.adm.DegradeAt > 0 {
		pending := int(m.pending.Load())
		switch {
		case !m.degraded && pending >= m.adm.DegradeAt:
			m.degraded = true
			m.res.degradedEnters.Add(1)
			m.tel.degraded.Set(1)
		case m.degraded && pending <= m.adm.resumeAt():
			if err := m.catchUpLocked(m.curSpan); err != nil {
				return err
			}
		}
	}
	return nil
}

// deferredSubmit is one degraded-mode acknowledgement awaiting its check:
// the context plus the logical clock at acknowledgement time, so catch-up
// can replay the expiry sweeps the inline path would have run.
type deferredSubmit struct {
	c     *ctx.Context
	clock time.Time
}

// deferSubmitLocked acknowledges a submission in degraded mode: the
// context is counted, journaled, and queued, but not added to the pool
// and not checked. Journaling the submit record at acknowledgement time
// is sound because a recovery replays it through the eager-checking path,
// which the catch-up equivalence makes identical to what catch-up will
// build.
func (m *Middleware) deferSubmitLocked(c *ctx.Context) error {
	// Duplicates must surface now, exactly as the inline path's pool
	// insertion would have reported them.
	if _, dup := m.pool.Get(c.ID); dup || m.deferredIDs[c.ID] {
		return fmt.Errorf("submit: add %s: %w", c.ID, pool.ErrDuplicate)
	}
	if c.Timestamp.After(m.clock) {
		m.clock = c.Timestamp
	}
	m.stats.Submitted++
	m.tel.submits.Inc()
	m.jAppend(wal.Record{Type: wal.RecordSubmit, Context: c})
	if m.deferredIDs == nil {
		m.deferredIDs = make(map[ctx.ID]bool)
	}
	m.deferredIDs[c.ID] = true
	m.deferredQ = append(m.deferredQ, deferredSubmit{c: c, clock: m.clock})
	m.res.deferredChecks.Add(1)
	m.tel.deferredChecks.Inc()
	return nil
}

// catchUpLocked leaves degraded mode and replays the deferred queue
// through the inline pipeline, in arrival order, sweeping expiry forward
// to each entry's acknowledgement-time clock first — the exact operation
// sequence the always-check path would have executed. A watchdog abort on
// one entry does not stop the rest; the first error is returned.
func (m *Middleware) catchUpLocked(sp *telemetry.Span) error {
	if !m.degraded && len(m.deferredQ) == 0 {
		return nil
	}
	batch := m.deferredQ
	m.deferredQ = nil
	m.deferredIDs = nil
	m.degraded = false
	m.tel.degraded.Set(0)
	if len(batch) == 0 {
		return nil
	}
	m.res.catchUps.Add(1)
	m.tel.catchups.Inc()
	var firstErr error
	for _, d := range batch {
		m.sweepAtLocked(d.clock)
		if _, err := m.processSubmitLocked(d.c, sp, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CatchUp forces any deferred consistency checks to run now. It is a
// no-op when the middleware is not degraded; read operations call the
// same path implicitly.
func (m *Middleware) CatchUp() (err error) {
	opStart := m.tel.now()
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.tel.startSpan("catchup", "", opStart, telemetry.TraceContext{})
	m.curSpan = sp
	defer func() {
		outcome := "caught-up"
		if err != nil {
			outcome = "error"
		}
		m.tel.opDone("catchup", opStart, sp, outcome)
		m.curSpan = nil
	}()
	defer m.journalCommitLocked(&err, &wait)
	if err := m.journalHealthLocked(); err != nil {
		return err
	}
	return m.catchUpLocked(sp)
}

// observeHealthLocked feeds one submission's check outcome to the health
// tracker.
func (m *Middleware) observeHealthLocked(c *ctx.Context, detected int) {
	if m.health == nil {
		return
	}
	o := health.OK
	if detected > 0 {
		o = health.Inconsistent
	}
	m.health.Observe(c.Source, o, m.clock)
}

// checkGuardedLocked runs the consistency check for one addition — under
// the watchdog when one is configured, inline otherwise. The universe is
// copied while the lock is held, so the check touches no shared middleware
// state and the watchdog can abandon it mid-flight: an abandoned check
// keeps evaluating over its immutable copy, writes its result into a
// buffered channel nobody reads, and exits.
func (m *Middleware) checkGuardedLocked(c *ctx.Context) ([]constraint.Violation, error) {
	u := m.pool.CheckingUniverse()
	compute := func() []constraint.Violation { return m.checker.CheckAddition(u, c) }
	if m.wd.CheckTimeout <= 0 {
		return compute(), nil
	}
	type result struct {
		vios     []constraint.Violation
		panicked any
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result{panicked: p}
			}
		}()
		ch <- result{vios: compute()}
	}()
	timer := time.NewTimer(m.wd.CheckTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.panicked != nil {
			return nil, fmt.Errorf("consistency check panicked: %v: %w", res.panicked, ErrCheckFailed)
		}
		return res.vios, nil
	case <-timer.C:
		return nil, fmt.Errorf("consistency check exceeded the %v watchdog: %w", m.wd.CheckTimeout, ErrCheckTimeout)
	}
}

// resolveAdditionLocked consults the strategy about an addition, with
// panic containment when the watchdog is armed.
func (m *Middleware) resolveAdditionLocked(c *ctx.Context, vios []constraint.Violation) (out strategy.Outcome, err error) {
	if m.wd.CheckTimeout > 0 {
		defer func() {
			if p := recover(); p != nil {
				out = strategy.Outcome{}
				err = fmt.Errorf("strategy %s OnAddition panicked: %v: %w", m.strat.Name(), p, ErrCheckFailed)
			}
		}()
	}
	return m.strat.OnAddition(c, vios), nil
}

// resolveUseLocked consults the strategy about a use, with panic
// containment when the watchdog is armed.
func (m *Middleware) resolveUseLocked(c *ctx.Context) (usable bool, out strategy.Outcome, err error) {
	if m.wd.CheckTimeout > 0 {
		defer func() {
			if p := recover(); p != nil {
				usable, out = false, strategy.Outcome{}
				err = fmt.Errorf("strategy %s OnUse panicked: %v: %w", m.strat.Name(), p, ErrCheckFailed)
			}
		}()
	}
	usable, out = m.strat.OnUse(c)
	return usable, out, nil
}

// rollbackSubmitLocked unwinds a submission whose check or resolution the
// watchdog aborted. For an inline submission nothing was counted or
// journaled yet (the fallible stages run first), so removing the context
// from the pool and journaling a check-fail annotation restores exactly
// the state a recovery would reconstruct. For a deferred submission the
// submit record is already committed, so the journal is fail-stopped
// rather than left claiming a context the live state dropped.
func (m *Middleware) rollbackSubmitLocked(c *ctx.Context, deferred bool, cause error) error {
	_ = m.pool.Remove(c.ID)
	m.deltaMark(c.Kind)
	m.jAppend(wal.Record{Type: wal.RecordCheckFail, ID: c.ID, Reason: cause.Error()})
	if errors.Is(cause, ErrCheckTimeout) {
		m.res.checkTimeouts.Add(1)
		m.tel.checkAborts.With("timeout").Inc()
	} else {
		m.res.checkPanics.Add(1)
		m.tel.checkAborts.With("panic").Inc()
	}
	if deferred {
		m.stats.Submitted--
		if m.journal != nil && m.journalErr == nil {
			m.journalErr = fmt.Errorf("deferred submission %s aborted after its record was journaled: %v", c.ID, cause)
		}
	}
	return fmt.Errorf("submit %s: %w", c.ID, cause)
}

// dropBufferedRecordLocked removes the newest queued-but-uncommitted
// record of the given type and ID from the operation's journal buffer
// (the use-path rollback: the use record is queued before the strategy
// runs, and an aborted strategy must not leave it behind).
func (m *Middleware) dropBufferedRecordLocked(typ wal.RecordType, id ctx.ID) {
	for i := len(m.jbuf) - 1; i >= 0; i-- {
		if m.jbuf[i].Type == typ && m.jbuf[i].ID == id {
			m.jbuf = append(m.jbuf[:i], m.jbuf[i+1:]...)
			return
		}
	}
}

// submitErrOutcome maps a submit error to its span outcome label.
func submitErrOutcome(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrQuarantined):
		return "quarantined"
	case errors.Is(err, ErrCheckTimeout):
		return "check-timeout"
	case errors.Is(err, ErrCheckFailed):
		return "check-panic"
	default:
		return "error"
	}
}

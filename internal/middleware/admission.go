// Overload resilience for the processing pipeline: admission control
// (bounded submit queue with deadline-aware load shedding), per-source
// circuit breakers (internal/health), and a watchdog that bounds the
// consistency check and strategy resolution, containing stuck or
// panicking evaluations as typed, counted, journaled failures.
//
// Every mechanism here is opt-in: a middleware built without
// WithAdmission, WithHealth, or WithWatchdog behaves byte-identically to
// one that predates this file.
package middleware

import (
	"errors"
	"fmt"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
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

// AdmissionOptions bounds the submit queue. The zero value leaves it
// unbounded.
type AdmissionOptions struct {
	// MaxPending caps concurrently pending Submit operations (the one
	// being processed plus those queued behind the middleware lock).
	// Submissions beyond the cap are shed immediately with ErrOverloaded,
	// without blocking. 0 means unbounded.
	MaxPending int
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

// ResilienceStats is a snapshot of the overload-control counters (all
// zero unless the corresponding mechanisms are enabled). They are
// deliberately NOT part of the journaled Stats struct — shed and
// quarantined submissions never reach the log, so a recovery cross-check
// against them could never balance.
type ResilienceStats struct {
	// OverloadShed counts submissions shed because the pending queue was
	// full; DeadlineShed those shed because the client deadline had
	// already passed when processing would have started.
	OverloadShed int64 `json:"overloadShed"`
	DeadlineShed int64 `json:"deadlineShed"`
	// Quarantined counts submissions dropped at their source's open
	// circuit breaker.
	Quarantined int64 `json:"quarantined"`
	// CheckTimeouts and CheckPanics count watchdog aborts.
	CheckTimeouts int64 `json:"checkTimeouts"`
	CheckPanics   int64 `json:"checkPanics"`
	// Pending is the number of Submit operations currently in flight.
	Pending int `json:"pending"`
}

// Resilience returns a snapshot of the overload-control counters.
func (m *Middleware) Resilience() ResilienceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.res
	rs.OverloadShed = m.queueShed.Load()
	rs.Pending = int(m.pending.Load())
	return rs
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

// admit applies the pending-submit cap before the lock is taken, so a
// full queue sheds in O(1) without joining it. It returns the release
// function that retires this operation from the count.
func (m *Middleware) admit() (release func(), err error) {
	if m.adm.MaxPending <= 0 {
		return func() {}, nil
	}
	n := m.pending.Add(1)
	if int(n) > m.adm.MaxPending {
		m.pending.Add(-1)
		m.account([]Event{{Type: EventShed, Cause: "queue"}})
		return nil, fmt.Errorf("queue full (%d pending, cap %d): %w", n-1, m.adm.MaxPending, ErrOverloaded)
	}
	return func() { m.pending.Add(-1) }, nil
}

// gateLocked runs the under-lock admission gates, in order: client
// deadline, then source quarantine. Both are bypassed during recovery
// replay — the journal only contains submissions that passed them live,
// and replay must not second-guess it.
func (m *Middleware) gateLocked(c *ctx.Context, so SubmitOptions) error {
	if m.replaying {
		return nil
	}
	if !so.Deadline.IsZero() && time.Now().After(so.Deadline) {
		m.emit(Event{Type: EventShed, Cause: "deadline"})
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
			m.emit(Event{Type: EventShed, Cause: "quarantine"})
			return fmt.Errorf("submit %s: source %q: %w", c.ID, c.Source, ErrQuarantined)
		}
	}
	return nil
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
// watchdog aborted. No accept event exists yet (the fallible stages run
// first), so removing the context from the pool and journaling a
// check-fail annotation restores exactly the state a recovery would
// reconstruct.
func (m *Middleware) rollbackSubmitLocked(c *ctx.Context, cause error) error {
	_ = m.pool.Remove(c.ID)
	m.emit(Event{Type: EventCheckAbort, Context: c, Err: cause})
	return fmt.Errorf("submit %s: %w", c.ID, cause)
}

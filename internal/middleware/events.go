package middleware

import (
	"errors"
	"slices"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/situation"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// EventType names one life-cycle fact.
type EventType uint8

// Event types. A submission's accept is followed directly by its detects,
// then by the discards its resolution made.
const (
	EventAccept     EventType = iota + 1 // Context entered the pool (see Checked)
	EventDetect                          // the check of the preceding accept found Violation
	EventUse                             // a use of Context reached the strategy
	EventDiscard                         // the strategy discarded Context, for Reason
	EventDeliver                         // Context was delivered to an application
	EventReject                          // a use of Context was refused as inconsistent
	EventExpire                          // Context expired unused
	EventBadMark                         // the strategy marked Context bad
	EventSituation                       // a situation made the transition Situation
	EventCheckAbort                      // the watchdog aborted the check or resolution of Context with Err
	EventAdvance                         // the logical clock moved forward to Time
	EventCompact                         // compaction removed N pool entries
	EventShed                            // admission control dropped a submission: Cause is queue, deadline or quarantine
)

// Event is one life-cycle fact of a locked operation. Besides Time, the
// logical clock it happened at, only the fields its type names are set.
// Checked marks an accept whose context was checked (its kind is relevant
// to a constraint).
type Event struct {
	Type      EventType
	Context   *ctx.Context
	Time      time.Time
	Violation constraint.Violation
	Reason    DiscardReason
	Situation situation.Event
	Checked   bool
	Err       error
	Cause     string
	N         int
}

// Hook observes each operation's events, in order. It runs under the
// middleware lock after the operation's journal records are committed, on
// replay too: it must be fast, must not call back into the middleware, and
// must not keep the slice, which is reused.
type Hook func(events []Event)

// WithHooks installs the life-cycle hook.
func WithHooks(h Hook) Option {
	return func(m *Middleware) { m.hook = h }
}

// emit appends a fact of the current locked operation, stamped with the
// logical clock unless it carries its own time.
func (m *Middleware) emit(e Event) {
	if e.Time.IsZero() {
		e.Time = m.clock
	}
	m.events = append(m.events, e)
}

// flushLocked ends a locked operation: it hands the operation's events to
// each sink in turn — journal, accounting, health, provenance, delta hook,
// life-cycle hook — and empties the list. Every entry point that emits
// events defers it after taking the lock. A journal failure is surfaced
// through errp; under group commit the durability obligation moves to
// wait.
func (m *Middleware) flushLocked(errp *error, wait *commitWait) {
	evs := m.events
	if len(evs) == 0 {
		return
	}
	m.journalEventsLocked(evs, errp, wait)
	m.account(evs)
	if m.health != nil {
		m.observeHealthLocked(evs)
	}
	if m.prov != nil || m.curSpan != nil {
		m.provenanceLocked(evs)
	}
	if m.deltaHook != nil && !m.replaying {
		m.notifyDeltaLocked(evs)
	}
	if m.hook != nil {
		m.hook(evs)
	}
	clear(evs)
	m.events = evs[:0]
}

// resolution returns the detect events that follow the accept at evs[i]
// and the discards its resolution made.
func resolution(evs []Event, i int) (detects, discards []Event) {
	j := i + 1
	for j < len(evs) && evs[j].Type == EventDetect {
		j++
	}
	k := j
	for k < len(evs) && evs[k].Type == EventDiscard && evs[k].Reason == ReasonOnAddition {
		k++
	}
	return evs[i+1 : j], evs[j:k]
}

// record returns the journal record an event writes, if any.
func (e *Event) record() (wal.Record, bool) {
	switch e.Type {
	case EventAccept:
		return wal.Record{Type: wal.RecordSubmit, Context: e.Context}, true
	case EventUse:
		return wal.Record{Type: wal.RecordUse, ID: e.Context.ID}, true
	case EventDiscard:
		return wal.Record{Type: wal.RecordDiscard, ID: e.Context.ID, Reason: e.Reason.String()}, true
	case EventExpire:
		return wal.Record{Type: wal.RecordExpire, ID: e.Context.ID}, true
	case EventBadMark:
		return wal.Record{Type: wal.RecordBad, ID: e.Context.ID}, true
	case EventCheckAbort:
		return wal.Record{Type: wal.RecordCheckFail, ID: e.Context.ID, Reason: e.Err.Error()}, true
	case EventAdvance:
		t := e.Time
		return wal.Record{Type: wal.RecordAdvance, Time: &t}, true
	case EventCompact:
		return wal.Record{Type: wal.RecordCompact}, true
	}
	return wal.Record{}, false
}

// journalEventsLocked appends the operation's records to the journal.
// After a write failure, sticky in journalErr, the rest are dropped.
func (m *Middleware) journalEventsLocked(evs []Event, errp *error, wait *commitWait) {
	if m.journal == nil || m.journalErr != nil {
		return
	}
	start := m.tel.now()
	appended := false
	for i := range evs {
		r, ok := evs[i].record()
		if !ok {
			continue
		}
		appended = true
		if !m.appendLocked(r, errp, wait) {
			break
		}
	}
	if appended {
		m.tel.stageDone(m.curSpan, telemetry.StageJournal, start)
	}
}

// account is the one writer of Stats, of the telemetry counters that
// mirror it, and of the resilience counters. It runs under the lock from
// flushLocked, and without it only for queue sheds, which happen before
// the lock is taken and touch atomic counters alone.
func (m *Middleware) account(evs []Event) {
	for i := range evs {
		e := &evs[i]
		switch e.Type {
		case EventAccept:
			m.stats.Submitted++
			m.tel.submits.Inc()
			if e.Checked {
				decision := "keep"
				if _, discards := resolution(evs, i); len(discards) > 0 {
					decision = "discard"
				}
				m.tel.decisions.With(decision).Inc()
			}
		case EventDetect:
			m.stats.Detected++
			m.tel.detected.Inc()
			m.tel.violations.With(e.Violation.Constraint).Inc()
		case EventDiscard:
			m.stats.Discarded++
			m.tel.discards.With(e.Reason.String()).Inc()
		case EventDeliver:
			m.stats.Delivered++
			m.tel.delivered.Inc()
			m.tel.decisions.With("deliver").Inc()
		case EventReject:
			m.stats.Rejected++
			m.tel.rejected.Inc()
			m.tel.decisions.With("reject").Inc()
		case EventExpire:
			m.stats.Expired++
			m.tel.expired.Inc()
		case EventSituation:
			if e.Situation.Type == situation.Activated {
				m.stats.Situations++
				m.tel.situations.Inc()
			}
		case EventCheckAbort:
			if errors.Is(e.Err, ErrCheckTimeout) {
				m.res.CheckTimeouts++
				m.tel.checkAborts.With("timeout").Inc()
			} else {
				m.res.CheckPanics++
				m.tel.checkAborts.With("panic").Inc()
			}
		case EventCompact:
			m.stats.Compactions++
			m.stats.CompactRemoved += e.N
			m.tel.compactions.Inc()
			m.tel.compactRemoved.Add(uint64(e.N))
		case EventShed:
			switch e.Cause {
			case "queue":
				m.queueShed.Add(1)
				m.tel.shed.With("queue").Inc()
			case "deadline":
				m.res.DeadlineShed++
				m.tel.shed.With("deadline").Inc()
			case "quarantine":
				m.res.Quarantined++
			}
		}
	}
}

// observeHealthLocked scores sources: each accepted submission by its
// check outcome, each discarded context as bad, each expiry as expired.
func (m *Middleware) observeHealthLocked(evs []Event) {
	for i := range evs {
		e := &evs[i]
		var o health.Outcome
		switch e.Type {
		case EventAccept:
			o = health.OK
			if detects, _ := resolution(evs, i); len(detects) > 0 {
				o = health.Inconsistent
			}
		case EventDiscard:
			o = health.Bad
		case EventExpire:
			o = health.Expired
		default:
			continue
		}
		m.health.Observe(e.Context.Source, o, e.Time)
	}
}

// provenanceLocked records the provenance of each resolution: one
// ResolutionEvent per violation the strategy resolved, appended to the
// provenance ring and — for the first violation — attached to the
// operation's span, so the resolve span itself names the constraint, the
// strategy, and the discarded contexts.
func (m *Middleware) provenanceLocked(evs []Event) {
	sp := m.curSpan
	for i := range evs {
		if evs[i].Type != EventAccept {
			continue
		}
		detects, discards := resolution(evs, i)
		var ids []string
		if len(detects) > 0 && len(discards) > 0 {
			ids = make([]string, len(discards))
			for j := range discards {
				ids[j] = string(discards[j].Context.ID)
			}
		}
		for j := range detects {
			ev := telemetry.ResolutionEvent{
				Constraint: detects[j].Violation.Constraint,
				Strategy:   m.strat.Name(),
				Discarded:  ids,
				Clock:      evs[i].Time,
			}
			if sp != nil {
				ev.TraceID = sp.TraceID
			}
			if bound := detects[j].Violation.Link.Contexts(); len(bound) > 0 {
				ev.Violating = make([]string, len(bound))
				for b, c := range bound {
					ev.Violating[b] = string(c.ID)
				}
			}
			m.prov.Append(ev)
			if j == 0 && sp != nil {
				first := ev
				sp.Resolution = &first
			}
		}
	}
}

// Delta describes the effect one state-changing middleware operation had
// on the pool's available view: the set of context kinds whose membership
// may have changed (additions, discards, expiries, rollbacks) and the
// logical clock at the end of the operation. Consumers — the daemon's
// subscription hub — use the kind set to re-evaluate only standing
// formulas that quantify over an affected kind, the same pruning the
// incremental checker applies through the kind index.
type Delta struct {
	// Kinds lists the affected context kinds, sorted for determinism.
	Kinds []ctx.Kind
	// Clock is the middleware's logical clock after the operation.
	Clock time.Time
	// TraceID/SpanID link the delta to the distributed trace of the
	// operation that produced it (the operation's span as parent), so
	// subscription pushes triggered by a sampled submission appear as
	// child spans of it. Empty on untraced operations.
	TraceID string
	SpanID  string
}

// DeltaHook observes pool deltas. Like Hook, it runs under the middleware
// lock after the operation's journal records are committed: it must be
// fast and must not call back into the middleware's public methods (pool
// reads are fine — the pool has its own lock). It is not called during
// replay: the replayed operations' deltas were observed live.
type DeltaHook func(d Delta)

// SetDeltaHook installs, replaces, or (with nil) removes the delta hook.
// The swap takes the middleware lock, so it serializes with in-flight
// operations: once SetDeltaHook(nil) returns, the old hook will not fire
// again.
func (m *Middleware) SetDeltaHook(h DeltaHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deltaHook = h
}

// notifyDeltaLocked hands the delta hook the kinds whose available
// membership the events may have changed.
func (m *Middleware) notifyDeltaLocked(evs []Event) {
	var kinds []ctx.Kind
	for i := range evs {
		switch evs[i].Type {
		case EventAccept, EventDiscard, EventExpire, EventCheckAbort:
			if k := evs[i].Context.Kind; !slices.Contains(kinds, k) {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) == 0 {
		return
	}
	slices.Sort(kinds)
	d := Delta{Kinds: kinds, Clock: m.clock}
	if sp := m.curSpan; sp != nil {
		d.TraceID, d.SpanID = sp.TraceID, sp.SpanID
	}
	m.deltaHook(d)
}

package middleware

import (
	"errors"
	"time"

	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// WithTelemetry exports pipeline counters and stage-latency histograms
// into reg. The counters are incremented by the one function that updates
// Stats, from the same events, so a /metrics scrape and the stats op
// always agree. A nil registry leaves telemetry disabled (the default) at
// zero cost per operation.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(m *Middleware) { m.telReg = reg }
}

// WithSpanSink records one telemetry.Span per pipeline operation
// (submit, use, use_latest, compact) with per-stage timings. Span
// recording is independent of WithTelemetry: either, both, or neither
// may be configured.
func WithSpanSink(sink telemetry.SpanSink) Option {
	return func(m *Middleware) { m.telSink = sink }
}

// WithProvenance installs a bounded resolution-provenance ring: every
// constraint violation the strategy resolves appends a
// telemetry.ResolutionEvent (constraint, strategy, violating binding,
// discarded contexts, logical clock, trace ID) that stays queryable
// after the fact via the daemon's provenance op and /statusz. A nil ring
// leaves provenance off at zero cost.
func WithProvenance(ring *telemetry.ProvenanceRing) Option {
	return func(m *Middleware) { m.prov = ring }
}

// pipelineTelemetry bundles the middleware's instruments. The zero value
// is "telemetry off": every instrument is nil and all methods no-op, so
// instrumented code calls them unconditionally. Only the clock reads are
// gated (on), keeping the disabled path free of time.Now syscalls.
type pipelineTelemetry struct {
	on   bool
	sink telemetry.SpanSink

	submits        *telemetry.Counter
	detected       *telemetry.Counter
	delivered      *telemetry.Counter
	rejected       *telemetry.Counter
	expired        *telemetry.Counter
	situations     *telemetry.Counter
	compactions    *telemetry.Counter
	compactRemoved *telemetry.Counter

	discards   *telemetry.CounterVec // by discard reason
	violations *telemetry.CounterVec // by constraint name
	decisions  *telemetry.CounterVec // by strategy decision

	// Overload-resilience instruments (see admission.go).
	shed        *telemetry.CounterVec // by shed cause: queue, deadline
	checkAborts *telemetry.CounterVec // by watchdog abort cause: timeout, panic

	stages *telemetry.HistogramVec // per pipeline stage
	ops    *telemetry.HistogramVec // per middleware entry point
}

func newPipelineTelemetry(reg *telemetry.Registry, sink telemetry.SpanSink) pipelineTelemetry {
	t := pipelineTelemetry{on: reg != nil || sink != nil, sink: sink}
	if reg == nil {
		return t
	}
	t.submits = reg.Counter("ctxres_submits_total", "Contexts admitted by Submit.")
	t.detected = reg.Counter("ctxres_detected_total", "Inconsistencies reported by the checker.")
	t.delivered = reg.Counter("ctxres_delivered_total", "Contexts successfully delivered to applications.")
	t.rejected = reg.Counter("ctxres_rejected_total", "Uses refused as inconsistent.")
	t.expired = reg.Counter("ctxres_expired_total", "Buffered contexts expired before use.")
	t.situations = reg.Counter("ctxres_situations_total", "Situation activation events.")
	t.compactions = reg.Counter("ctxres_compactions_total", "Compact calls.")
	t.compactRemoved = reg.Counter("ctxres_compact_removed_total", "Pool entries dropped by compaction.")
	t.shed = reg.CounterVec("ctxres_overload_shed_total", "Submissions shed by admission control.", "cause")
	t.checkAborts = reg.CounterVec("ctxres_check_aborts_total", "Pipeline stages aborted by the check watchdog.", "cause")
	t.discards = reg.CounterVec("ctxres_discards_total", "Contexts discarded by the resolution strategy.", "reason")
	t.violations = reg.CounterVec("ctxres_violations_total", "Detected violations by constraint.", "constraint")
	t.decisions = reg.CounterVec("ctxres_strategy_decisions_total", "Resolution strategy consultations by decision.", "decision")
	t.stages = reg.HistogramVec("ctxres_stage_seconds", "Pipeline stage latency.", "stage", nil)
	t.ops = reg.HistogramVec("ctxres_op_seconds", "Middleware operation latency end to end.", "op", nil)
	return t
}

// now reads the wall clock when telemetry is on, and returns the zero
// time otherwise; the zero time makes every downstream *Done call a
// no-op.
func (t *pipelineTelemetry) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

// stageDone observes one completed pipeline stage on the stage histogram
// and, when a span is being recorded, on the span. Stages of a sampled
// trace attach the trace ID as the histogram bucket's exemplar, so a p99
// ctxres_stage_seconds bucket on /metrics links to a concrete trace.
func (t *pipelineTelemetry) stageDone(sp *telemetry.Span, stage telemetry.Stage, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	if sp != nil && sp.TraceID != "" {
		t.stages.With(string(stage)).ObserveDurationExemplar(d, sp.TraceID)
	} else {
		t.stages.With(string(stage)).ObserveDuration(d)
	}
	sp.AddStage(stage, d)
}

// startSpan opens a span for one operation when a sink is installed.
// When the operation arrived under a sampled trace, the span joins it:
// same trace ID, the caller's span as parent, a fresh 64-bit span ID of
// its own. Without a sink there is nowhere to record spans, so tracing
// is off regardless of tr (the daemon's hello negotiation never offers
// tracing in that case).
func (t *pipelineTelemetry) startSpan(op, id string, start time.Time, tr telemetry.TraceContext) *telemetry.Span {
	if t.sink == nil {
		return nil
	}
	sp := &telemetry.Span{Op: op, ID: id, Start: start}
	if tr.Sampled() {
		sp.TraceID = tr.TraceID
		sp.ParentID = tr.SpanID
		sp.SpanID = telemetry.NewSpanID()
	}
	return sp
}

// opDone ends the operation holding the lock: it observes the
// operation's end-to-end latency and emits its span.
func (m *Middleware) opDone(op string, start time.Time, outcome string) {
	sp := m.curSpan
	m.curSpan = nil
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	m.tel.ops.With(op).ObserveDuration(d)
	if sp != nil {
		sp.Outcome = outcome
		sp.Seconds = d.Seconds()
		m.tel.sink.RecordSpan(sp)
	}
}

// outcome maps an operation's error to its span outcome label; ok labels
// success.
func outcome(err error, ok string) string {
	switch {
	case err == nil:
		return ok
	case errors.Is(err, ErrInconsistent):
		return "rejected"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrDiscarded):
		return "discarded"
	case errors.Is(err, ErrExpired):
		return "expired"
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

// JournalErr reports the sticky journal write failure, or nil while the
// journal is healthy (or absent). The daemon's /healthz endpoint reads
// it to flip the process unhealthy once the middleware has fail-stopped.
func (m *Middleware) JournalErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalErr
}

// SigmaSize reports the resolution strategy's internal buffer size (the
// tracked inconsistency set Σ for drop-bad), or 0 for strategies without
// one. It takes the middleware lock because strategies are not safe for
// concurrent use; scrape-time gauge callbacks route through it.
func (m *Middleware) SigmaSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.strat.(interface{ SigmaSize() int }); ok {
		return s.SigmaSize()
	}
	return 0
}

// NewWALObserver builds a wal.Observer exporting journal timings into
// reg: append and fsync latency histograms, snapshot write latency, and
// rotation/byte counters. It lives here rather than in internal/wal so
// the log layer stays free of telemetry dependencies; wire it into
// wal.Options.Observer when opening the journal. A nil registry returns
// the zero observer (all callbacks absent).
func NewWALObserver(reg *telemetry.Registry) wal.Observer {
	if reg == nil {
		return wal.Observer{}
	}
	appendH := reg.Histogram("ctxres_wal_append_seconds", "WAL record append write latency.", nil)
	fsyncH := reg.Histogram("ctxres_wal_fsync_seconds", "WAL fsync latency.", nil)
	snapH := reg.Histogram("ctxres_wal_snapshot_seconds", "WAL snapshot write latency.", nil)
	rotations := reg.Counter("ctxres_wal_rotations_total", "WAL segment rotations.")
	appended := reg.Counter("ctxres_wal_appended_bytes_total", "Bytes appended to the WAL.")
	return wal.Observer{
		Append: func(bytes int, d time.Duration) {
			appendH.ObserveDuration(d)
			appended.Add(uint64(bytes))
		},
		Fsync:    func(d time.Duration) { fsyncH.ObserveDuration(d) },
		Snapshot: func(d time.Duration) { snapH.ObserveDuration(d) },
		Rotate:   func() { rotations.Inc() },
	}
}

package middleware

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ctxres/internal/pool"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// ErrNoJournal is returned by durability operations when no journal is
// attached.
var ErrNoJournal = errors.New("middleware: no journal attached")

// AttachJournal attaches a write-ahead log. Every state-changing operation
// appends its records to the journal before the middleware lock is
// released; a write failure is sticky and fails all further
// state-changing operations (fail-stop — the in-memory state never runs
// ahead of what a recovery could reconstruct, except for the one operation
// that observed the failure). On the recovery path Recover rebuilds state
// first, then the caller opens the journal — which truncates any torn
// tail — and attaches it.
func (m *Middleware) AttachJournal(j *wal.Journal) error {
	if j == nil {
		return errors.New("middleware: attach nil journal")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal != nil {
		return errors.New("middleware: journal already attached")
	}
	m.journal = j
	m.journalErr = nil
	return nil
}

// JournalStats returns the attached journal's counters, or nil when no
// journal is attached.
func (m *Middleware) JournalStats() *wal.Stats {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	s := j.Stats()
	return &s
}

// journalHealthLocked refuses state-changing operations once the journal
// has failed (fail-stop).
func (m *Middleware) journalHealthLocked() error {
	if m.journalErr != nil {
		return fmt.Errorf("middleware: journal failed: %w", m.journalErr)
	}
	return nil
}

// commitWait carries one operation's durability obligation past the
// middleware lock. Under group commit, appendLocked records the
// highest sequence the operation appended here instead of waiting for the
// fsync inline; commitDurable — deferred before the lock's own defer, so
// (LIFO) it runs after the unlock — then blocks on the shared fsync. That
// ordering is the whole point: the fsync wait happens with the middleware
// lock released, so concurrent operations append, queue, and coalesce
// into one fsync instead of serializing on it.
type commitWait struct {
	j   *wal.Journal
	seq uint64

	// trace/sink capture the operation's trace context across the lock
	// boundary: the fsync wait happens after opDone has already emitted
	// the operation's span (defer LIFO), so the wait gets a span of its
	// own, parented on the operation's.
	trace telemetry.TraceContext
	sink  telemetry.SpanSink
}

// appendLocked appends one record of the current operation to the
// journal, stamped with the operation's trace. On a write failure the
// error is recorded as sticky, surfaced through errp, and false returned.
// Under group commit the record is written but not yet synced; the
// operation's durability point moves to commitDurable via wait.
func (m *Middleware) appendLocked(r wal.Record, errp *error, wait *commitWait) bool {
	sp := m.curSpan
	if sp != nil && sp.TraceID != "" {
		r.TraceID = sp.TraceID
		r.SpanID = sp.SpanID
	}
	seq, err := m.journal.Append(r)
	if err != nil {
		m.journalErr = err
		surfaceJournalErr(errp, fmt.Errorf("middleware: journal append: %w", err))
		return false
	}
	if wait != nil && m.journal.GroupCommit() {
		wait.j = m.journal
		wait.seq = seq
		if sp != nil && sp.TraceID != "" && m.tel.sink != nil {
			wait.trace = telemetry.TraceContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
			wait.sink = m.tel.sink
		}
	}
	return true
}

// commitDurable discharges a commitWait: it blocks until every record the
// operation appended is fsynced. It must run after the middleware lock is
// released (register its defer before the unlock's). A durability failure
// is recorded as the sticky journal error — the records may or may not
// have reached the disk, so the log can no longer be trusted to match
// acknowledged state — and surfaced through errp.
func (m *Middleware) commitDurable(wait *commitWait, errp *error) {
	if wait.j == nil {
		return
	}
	var start time.Time
	if wait.sink != nil {
		start = time.Now()
	}
	err := wait.j.WaitDurable(wait.seq)
	if wait.sink != nil {
		sp := &telemetry.Span{
			Op:       "wal_wait",
			TraceID:  wait.trace.TraceID,
			ParentID: wait.trace.SpanID,
			SpanID:   telemetry.NewSpanID(),
			Start:    start,
			Seconds:  time.Since(start).Seconds(),
			Outcome:  "durable",
		}
		if err != nil {
			sp.Outcome = "error"
		}
		wait.sink.RecordSpan(sp)
	}
	if err != nil {
		m.mu.Lock()
		if m.journal == wait.j && m.journalErr == nil {
			m.journalErr = err
		}
		m.mu.Unlock()
		surfaceJournalErr(errp, fmt.Errorf("middleware: journal commit: %w", err))
	}
}

// surfaceJournalErr reports a journal failure to the operation that
// observed it. An operation that already failed may still have changed
// state — a rejected use discards the context — so the journal error is
// joined to its error rather than dropped: the caller must learn that the
// change is not durable.
func surfaceJournalErr(errp *error, jerr error) {
	switch {
	case errp == nil:
	case *errp == nil:
		*errp = jerr
	default:
		*errp = errors.Join(*errp, jerr)
	}
}

// snapshotLocked captures the full middleware state as of journal sequence
// seq: pool contents, logical clock, counters, and — for strategies with
// internal buffers — the serialized strategy state (Σ and its counters for
// drop-bad).
func (m *Middleware) snapshotLocked(seq uint64) (wal.Snapshot, error) {
	snap := wal.Snapshot{
		Seq:      seq,
		Clock:    m.clock,
		Strategy: m.strat.Name(),
		Pool:     m.pool.Snapshot(),
	}
	snap.Stats, _ = json.Marshal(m.stats) // integers only: cannot fail
	if sn, ok := m.strat.(strategy.StateSnapshotter); ok {
		blob, err := sn.StrategyState()
		if err != nil {
			return wal.Snapshot{}, fmt.Errorf("middleware: snapshot strategy: %w", err)
		}
		snap.StrategyState = blob
	}
	if m.situations != nil {
		blob, err := json.Marshal(m.situations.State())
		if err != nil {
			return wal.Snapshot{}, fmt.Errorf("middleware: snapshot situations: %w", err)
		}
		snap.Situations = blob
	}
	return snap, nil
}

// Fingerprint serializes the full durable state — pool, clock, strategy
// buffer, counters, situation activations — exactly as a checkpoint
// snapshot would (with sequence zero), so two middlewares can be
// compared byte for byte. The crash-recovery and cluster-failover tests
// use it to prove a recovered or promoted node matches its reference.
func (m *Middleware) Fingerprint() (string, error) {
	m.mu.Lock()
	snap, err := m.snapshotLocked(0)
	m.mu.Unlock()
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// appendStatsLocked journals a stats annotation carrying the current
// counters, so recovery can cross-check the replayed state.
func (m *Middleware) appendStatsLocked(errp *error, wait *commitWait) {
	blob, _ := json.Marshal(m.stats) // integers only: cannot fail
	m.appendLocked(wal.Record{Type: wal.RecordStats, Stats: blob}, errp, wait)
}

// Checkpoint writes a snapshot of the full middleware state to the
// journal, allowing it to truncate obsolete segments, then journals a
// stats annotation so the next recovery verifies the restored counters.
func (m *Middleware) Checkpoint() (err error) {
	var wait commitWait
	defer m.commitDurable(&wait, &err)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return ErrNoJournal
	}
	if err := m.journalHealthLocked(); err != nil {
		return err
	}
	snap, err := m.snapshotLocked(m.journal.LastSeq())
	if err != nil {
		return err
	}
	if err := m.journal.WriteSnapshot(snap); err != nil {
		m.journalErr = err
		return fmt.Errorf("middleware: checkpoint: %w", err)
	}
	m.appendStatsLocked(&err, &wait)
	return err
}

// CloseJournal journals a final stats annotation (when the journal is
// still healthy), closes the journal, and detaches it. The middleware
// remains usable without durability afterwards.
func (m *Middleware) CloseJournal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return nil
	}
	// No commitWait: Close below syncs everything unconditionally.
	if m.journalErr == nil {
		m.appendStatsLocked(nil, nil)
	}
	err := m.journal.Close()
	m.journal = nil
	m.journalErr = nil
	return err
}

// RecoveryReport describes what Recover reconstructed.
type RecoveryReport struct {
	// SnapshotPath is the snapshot file the recovery started from (empty
	// when state was rebuilt from the log alone).
	SnapshotPath string `json:"snapshotPath,omitempty"`
	// SnapshotSeq is the last journal sequence the snapshot covers.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Commands counts the replayed command records.
	Commands int `json:"commands"`
	// Annotations counts the derived records skipped during replay.
	Annotations int `json:"annotations"`
	// StatsChecked counts the stats annotations cross-checked against the
	// recovered counters.
	StatsChecked int `json:"statsChecked"`
	// TornBytes is the size of the torn tail truncated from the final
	// segment, if any.
	TornBytes int64 `json:"tornBytes"`
	// SkippedSnapshots lists unreadable snapshot files that were skipped in
	// favor of an older one.
	SkippedSnapshots []string `json:"skippedSnapshots,omitempty"`
	// LastSeq is the last journal sequence applied.
	LastSeq uint64 `json:"lastSeq"`
}

// Recover rebuilds middleware state from the write-ahead log directory:
// it loads the newest valid snapshot (if any) and replays the subsequent
// command records through the ordinary Submit/Use/AdvanceTo/Compact entry
// points, re-deriving every strategy decision deterministically. A torn
// final record (a crash mid-write) is tolerated; real corruption is an
// error.
//
// build must return a fresh middleware configured exactly as the crashed
// one (same constraints, same strategy, same options) and with no journal
// attached — after Recover returns, the caller opens the journal (which
// truncates the torn tail on disk) and attaches it with AttachJournal.
func Recover(dir string, build func() *Middleware) (*Middleware, *RecoveryReport, error) {
	res, err := wal.Load(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("middleware: recover: %w", err)
	}
	m := build()
	if m == nil {
		return nil, nil, errors.New("middleware: recover: build returned nil")
	}
	if m.journal != nil {
		return nil, nil, errors.New("middleware: recover: build must not attach a journal")
	}
	rep := &RecoveryReport{
		SnapshotPath:     res.SnapshotPath,
		TornBytes:        res.TornBytes,
		SkippedSnapshots: res.SkippedSnapshots,
	}
	if res.Snapshot != nil {
		if err := m.restoreSnapshot(res.Snapshot); err != nil {
			return nil, nil, fmt.Errorf("middleware: recover: %w", err)
		}
		rep.SnapshotSeq = res.Snapshot.Seq
		rep.LastSeq = res.Snapshot.Seq
	}
	// Replay drives the public entry points; the journal only contains
	// submissions that passed the admission gates live, so the gates must
	// not second-guess it (a breaker tripping at a different point during
	// replay would otherwise reject a journaled submit).
	m.mu.Lock()
	m.replaying = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.replaying = false
		m.mu.Unlock()
	}()
	for _, rec := range res.Records {
		if err := m.replayRecord(rec, rep); err != nil {
			return nil, nil, fmt.Errorf("middleware: recover: record %d (%s): %w", rec.Seq, rec.Type, err)
		}
		rep.LastSeq = rec.Seq
	}
	return m, rep, nil
}

// restoreSnapshot loads a snapshot into a freshly built middleware.
func (m *Middleware) restoreSnapshot(snap *wal.Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if snap.Strategy != "" && snap.Strategy != m.strat.Name() {
		return fmt.Errorf("snapshot was taken with strategy %s, middleware runs %s", snap.Strategy, m.strat.Name())
	}
	p, err := pool.Restore(snap.Pool)
	if err != nil {
		return err
	}
	m.pool = p
	m.clock = snap.Clock
	if len(snap.Stats) > 0 {
		var st Stats
		if err := json.Unmarshal(snap.Stats, &st); err != nil {
			return fmt.Errorf("snapshot stats: %w", err)
		}
		m.stats = st
	}
	if len(snap.StrategyState) > 0 {
		sn, ok := m.strat.(strategy.StateSnapshotter)
		if !ok {
			return fmt.Errorf("snapshot carries strategy state but %s cannot restore it", m.strat.Name())
		}
		if err := sn.RestoreStrategyState(snap.StrategyState, p.Get); err != nil {
			return err
		}
	}
	if len(snap.Situations) > 0 {
		if m.situations == nil {
			return errors.New("snapshot carries situation state but the middleware has no engine")
		}
		var st situation.State
		if err := json.Unmarshal(snap.Situations, &st); err != nil {
			return fmt.Errorf("snapshot situations: %w", err)
		}
		m.situations.RestoreState(st)
	}
	return nil
}

// replayRecord applies one journal record. Commands run through the
// public entry points; annotations are derived state journaled for
// observability and are skipped, except stats annotations, which are
// cross-checked against the replayed counters.
func (m *Middleware) replayRecord(rec wal.Record, rep *RecoveryReport) error {
	switch rec.Type {
	case wal.RecordSubmit:
		rep.Commands++
		if _, err := m.Submit(rec.Context); err != nil {
			return err
		}
	case wal.RecordUse:
		rep.Commands++
		// A use that the strategy rejected was journaled too: the rejection
		// (and its discards) re-derives identically, surfacing as
		// ErrInconsistent here.
		if _, err := m.Use(rec.ID); err != nil && !errors.Is(err, ErrInconsistent) {
			return err
		}
	case wal.RecordAdvance:
		rep.Commands++
		if rec.Time == nil {
			return errors.New("advance record without time")
		}
		m.AdvanceTo(*rec.Time)
	case wal.RecordCompact:
		rep.Commands++
		if _, err := m.Compact(); err != nil {
			return err
		}
	case wal.RecordStats:
		rep.Annotations++
		rep.StatsChecked++
		var want Stats
		if err := json.Unmarshal(rec.Stats, &want); err != nil {
			return fmt.Errorf("stats annotation: %w", err)
		}
		if got := m.Stats(); got != want {
			return fmt.Errorf("replayed stats diverge from journal: got %+v, journal %+v", got, want)
		}
	case wal.RecordDiscard, wal.RecordExpire, wal.RecordBad, wal.RecordCheckFail, wal.RecordEpochBump:
		// Discards, expiries and bad marks are re-derived by replaying the
		// commands above. A check-fail annotates an operation that was
		// rolled back (or fail-stopped the journal right after), so there
		// is nothing to re-apply; an epoch bump is journal-level state
		// that wal.Open recovers.
		rep.Annotations++
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

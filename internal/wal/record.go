// Package wal gives the middleware durable state: a segmented, append-only
// write-ahead log of every state-changing middleware event plus periodic
// snapshots of the full pool, tracked inconsistency set Σ, and strategy
// buffer. Recovery loads the newest valid snapshot and replays the log
// suffix through the middleware's normal entry points, tolerating a torn
// final record (a crash mid-append) by truncating it.
//
// On disk a journal directory holds segment files (`wal-<firstseq>.seg`)
// and snapshot files (`snap-<seq>.snap`). Both use the same frame format:
// a little-endian uint32 payload length, a little-endian uint32 CRC32C
// (Castagnoli) of the payload, then the payload bytes. Segment files start
// with an 8-byte magic header and contain one frame per record; snapshot
// files start with their own magic and contain exactly one frame. Record
// payloads are JSON, so `ctxwal dump` can re-emit them as the
// internal/trace JSON-lines format without a schema compiler.
package wal

import (
	"encoding/json"
	"fmt"
	"time"
	"unicode/utf8"

	"ctxres/internal/ctx"
)

// RecordType tags a journal record. Command records are replayed through
// the middleware's public entry points during recovery; annotation records
// describe effects the replay re-derives (discards, expiries, bad marks)
// and exist for observability, verification, and `ctxwal dump`.
type RecordType string

// Record types.
const (
	// RecordSubmit journals a successfully admitted context addition
	// change (command; carries the full wire-encoded context).
	RecordSubmit RecordType = "submit"
	// RecordUse journals a context deletion change: an application's use
	// attempt that reached the resolution strategy (command; the attempt
	// may have been delivered or rejected — replay re-derives which).
	RecordUse RecordType = "use"
	// RecordAdvance journals a logical-clock advance (command).
	RecordAdvance RecordType = "advance"
	// RecordCompact journals a pool compaction (command), so recovered
	// pools drop exactly the entries the original run dropped.
	RecordCompact RecordType = "compact"
	// RecordDiscard annotates a context discarded by the strategy, with
	// its middleware.DiscardReason string.
	RecordDiscard RecordType = "discard"
	// RecordExpire annotates a buffered context that expired before use.
	RecordExpire RecordType = "expire"
	// RecordBad annotates a context marked bad by the drop-bad strategy
	// (Case 2 of the paper's Section 3.3).
	RecordBad RecordType = "bad"
	// RecordStats carries a middleware counter snapshot. Recovery
	// cross-checks the replayed middleware.Stats() against it.
	RecordStats RecordType = "stats"
	// RecordCheckFail annotates a submission aborted by the check
	// watchdog (timeout or recovered panic). The submission itself was
	// rolled back — its submit record never reached the log — so replay
	// skips this record; it exists for observability and `ctxwal dump`.
	RecordCheckFail RecordType = "check-fail"
	// RecordEpochBump annotates a fencing-epoch advance (a follower
	// promotion). The record's Epoch field carries the new epoch; replay
	// skips it — the epoch lives in the journal, not the middleware —
	// but Journal.Open recovers the epoch from it, so a promoted
	// leader's term survives its own restart.
	RecordEpochBump RecordType = "epoch"
)

// Command reports whether the record type is replayed during recovery.
func (t RecordType) Command() bool {
	switch t {
	case RecordSubmit, RecordUse, RecordAdvance, RecordCompact:
		return true
	default:
		return false
	}
}

// Valid reports whether the record type is known.
func (t RecordType) Valid() bool {
	switch t {
	case RecordSubmit, RecordUse, RecordAdvance, RecordCompact,
		RecordDiscard, RecordExpire, RecordBad, RecordStats, RecordCheckFail,
		RecordEpochBump:
		return true
	default:
		return false
	}
}

// Record is one journal entry. Seq is the log sequence number, assigned by
// Journal.Append: strictly increasing, starting at 1, continuous across
// segments.
type Record struct {
	Seq  uint64     `json:"seq"`
	Type RecordType `json:"type"`

	// Epoch is the fencing epoch the record was appended under. Fresh
	// journals start at epoch 0 (omitted on the wire, so pre-fencing logs
	// decode unchanged); every follower promotion bumps it. A replication
	// follower refuses records from an epoch below its own — the deposed
	// leader's fork can never overwrite the promoted timeline.
	Epoch uint64 `json:"epoch,omitempty"`

	// Context is the submitted context (RecordSubmit).
	Context *ctx.Context `json:"context,omitempty"`
	// ID names the affected context (use, discard, expire, bad).
	ID ctx.ID `json:"id,omitempty"`
	// Reason is the discard reason string (RecordDiscard) or the abort
	// cause (RecordCheckFail).
	Reason string `json:"reason,omitempty"`
	// Time is the clock target (RecordAdvance).
	Time *time.Time `json:"time,omitempty"`
	// Stats is the marshaled middleware counter snapshot (RecordStats).
	Stats json.RawMessage `json:"stats,omitempty"`

	// TraceID/SpanID stamp the record with the distributed trace of the
	// operation that appended it (the span is the operation's pipeline
	// span on the node that wrote the record). They ride the replication
	// feed unchanged, so a follower's apply spans join the leader's trace
	// without a side channel. Empty on untraced operations — the encoded
	// record bytes are then identical to the pre-tracing format.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// encode marshals the record to its frame payload.
func (r Record) encode() ([]byte, error) {
	if !r.Type.Valid() {
		return nil, fmt.Errorf("wal: encode: invalid record type %q", r.Type)
	}
	if !utf8.ValidString(string(r.ID)) {
		// JSON would replace the invalid bytes: the record would replay
		// under another ID.
		return nil, fmt.Errorf("wal: encode record %d: id %q: %w", r.Seq, r.ID, ctx.ErrNotUTF8)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record %d: %w", r.Seq, err)
	}
	return data, nil
}

// decodeRecord parses a frame payload.
func decodeRecord(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("wal: decode record: %w", err)
	}
	if !r.Type.Valid() {
		return Record{}, fmt.Errorf("wal: decode record %d: unknown type %q", r.Seq, r.Type)
	}
	if r.Type == RecordSubmit && r.Context == nil {
		return Record{}, fmt.Errorf("wal: decode record %d: submit without context", r.Seq)
	}
	if r.Type == RecordAdvance && r.Time == nil {
		return Record{}, fmt.Errorf("wal: decode record %d: advance without time", r.Seq)
	}
	return r, nil
}

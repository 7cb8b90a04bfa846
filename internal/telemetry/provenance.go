package telemetry

import (
	"sync"
	"time"
)

// ResolutionEvent is the structured provenance record of one resolved
// constraint violation: which constraint fired, over which binding of
// context IDs, which heuristic strategy decided the repair, and which
// contexts it discarded — the paper's drop-latest/drop-all decision made
// queryable after the fact. Clock is the middleware's logical clock at
// resolution time; TraceID links the event to the distributed trace of
// the submission that triggered it (empty when the operation was not
// sampled).
type ResolutionEvent struct {
	Seq        uint64    `json:"seq"`
	Constraint string    `json:"constraint"`
	Strategy   string    `json:"strategy"`
	Violating  []string  `json:"violating,omitempty"`
	Discarded  []string  `json:"discarded,omitempty"`
	Clock      time.Time `json:"clock"`
	TraceID    string    `json:"trace_id,omitempty"`
}

// ProvenanceRing is a bounded in-memory log of the most recent
// resolution events. Appends overwrite the oldest entry once the ring is
// full; Seq numbers are monotonic across overwrites so a reader can tell
// how much history was evicted. Nil-safe: all methods no-op on nil, so
// provenance stays free when not configured.
type ProvenanceRing struct {
	mu   sync.Mutex
	buf  []ResolutionEvent
	next uint64 // total events ever appended; buf[(next-1) % cap] is newest
	cap  int
}

// DefaultProvenanceCap bounds the ring when the caller passes a
// non-positive capacity.
const DefaultProvenanceCap = 256

// NewProvenanceRing returns a ring holding at most capacity events
// (DefaultProvenanceCap when capacity <= 0).
func NewProvenanceRing(capacity int) *ProvenanceRing {
	if capacity <= 0 {
		capacity = DefaultProvenanceCap
	}
	return &ProvenanceRing{buf: make([]ResolutionEvent, 0, capacity), cap: capacity}
}

// Append records one event, stamping its Seq.
func (r *ProvenanceRing) Append(ev ResolutionEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[int(ev.Seq)%r.cap] = ev
	}
	r.mu.Unlock()
}

// Events returns up to limit of the most recent events, newest first.
// limit <= 0 means every retained event.
func (r *ProvenanceRing) Events(limit int) []ResolutionEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]ResolutionEvent, 0, limit)
	for i := 0; i < limit; i++ {
		seq := r.next - 1 - uint64(i)
		out = append(out, r.buf[int(seq)%r.cap])
	}
	return out
}

// Total returns how many events were ever appended (including evicted
// ones).
func (r *ProvenanceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

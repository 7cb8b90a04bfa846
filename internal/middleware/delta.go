package middleware

import (
	"sort"
	"time"

	"ctxres/internal/ctx"
)

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

// DeltaHook observes pool deltas. Like Hooks, it runs under the
// middleware lock after the operation's journal records are committed:
// it must be fast and must not call back into the middleware's public
// methods (pool reads are fine — the pool has its own lock).
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

// deltaMark records, within the current locked operation, that the
// available membership of kind may have changed. Cheap no-op when no hook
// is installed or during WAL replay (the replayed operations' deltas were
// already observed live).
func (m *Middleware) deltaMark(kind ctx.Kind) {
	if m.deltaHook == nil || m.replaying {
		return
	}
	if m.deltaKinds == nil {
		m.deltaKinds = make(map[ctx.Kind]bool, 4)
	}
	m.deltaKinds[kind] = true
}

// notifyDeltaLocked flushes the accumulated kind marks to the hook.
// Each state-changing entry point defers it before its journal-commit
// defer, so (LIFO) the hook observes post-commit state.
func (m *Middleware) notifyDeltaLocked() {
	if m.deltaHook == nil || len(m.deltaKinds) == 0 {
		return
	}
	kinds := make([]ctx.Kind, 0, len(m.deltaKinds))
	for k := range m.deltaKinds {
		kinds = append(kinds, k)
		delete(m.deltaKinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	d := Delta{Kinds: kinds, Clock: m.clock}
	if sp := m.curSpan; sp != nil {
		d.TraceID, d.SpanID = sp.TraceID, sp.SpanID
	}
	m.deltaHook(d)
}

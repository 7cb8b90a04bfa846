package middleware

import (
	"strings"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
)

// presenceEngine builds a one-situation engine with a fixed wall clock so
// full events compare byte-for-byte across runs.
func presenceEngine() *situation.Engine {
	eng := situation.NewEngine()
	eng.MustRegister(&situation.Situation{
		Name: "peter-present",
		Formula: constraint.Exists("a", ctx.KindLocation,
			constraint.SubjectIs("a", "peter")),
	})
	eng.SetWallClock(func() time.Time { return t0 })
	return eng
}

// TestJournalSituationsCheckpointRoundTrip pins the interaction between
// checkpoints and situation state: a snapshot taken while a situation is
// active must restore that activation, so replaying the journal tail emits
// exactly the post-checkpoint transitions — no spurious re-activation from
// an engine that woke up all-inactive.
func TestJournalSituationsCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var refEvents []string
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(),
		WithSituations(presenceEngine()),
		WithHooks(on(EventSituation, func(e Event) { refEvents = append(refEvents, e.Situation.String()) }))),
		openTestJournal(t, dir))

	if _, err := m.Submit(loc("d1", 1, 0, ctx.WithTTL(5*time.Second))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	if len(refEvents) != 1 || !strings.Contains(refEvents[0], "activated") {
		t.Fatalf("events = %v, want one activation", refEvents)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Past d1's TTL, a delivery for another subject re-evaluates the
	// situations and deactivates peter-present; this transition lands after
	// the checkpoint, so recovery must regenerate it — and only it.
	anna := ctx.NewLocation("anna", t0.Add(30*time.Second), ctx.Point{},
		ctx.WithID("a1"), ctx.WithSeq(30), ctx.WithSource("tracker"))
	if _, err := m.Submit(anna); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("a1"); err != nil {
		t.Fatal(err)
	}
	if len(refEvents) != 2 || !strings.Contains(refEvents[1], "deactivated") {
		t.Fatalf("events = %v, want a deactivation after expiry", refEvents)
	}
	want := durableFingerprint(t, m)
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	var replayEvents []string
	eng2 := presenceEngine()
	m2, rep, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(),
			WithSituations(eng2),
			WithHooks(on(EventSituation, func(e Event) { replayEvents = append(replayEvents, e.Situation.String()) })))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq == 0 {
		t.Fatalf("report = %+v, want recovery from the checkpoint snapshot", rep)
	}
	if got := durableFingerprint(t, m2); got != want {
		t.Fatalf("recovered state diverges:\n got %s\nwant %s", got, want)
	}
	// Only the post-checkpoint transition replays, byte-identical to the
	// one the pre-crash run emitted.
	if len(replayEvents) != 1 || replayEvents[0] != refEvents[1] {
		t.Fatalf("replayed events = %v, want exactly [%s]", replayEvents, refEvents[1])
	}
	if eng2.Active("peter-present") {
		t.Fatal("situation still active after recovered expiry")
	}
	if eng2.Activations() != 1 || eng2.Deactivations() != 1 {
		t.Fatalf("counters = %d/%d, want 1/1", eng2.Activations(), eng2.Deactivations())
	}
}

// TestRecoverSituationSnapshotNeedsEngine: a snapshot that carries situation
// state must not be silently dropped when recovery builds a middleware
// without an engine — that would resurrect the spurious-reactivation bug
// the snapshot field exists to prevent.
func TestRecoverSituationSnapshotNeedsEngine(t *testing.T) {
	dir := t.TempDir()
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(),
		WithSituations(presenceEngine())), openTestJournal(t, dir))
	if _, err := m.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	_, _, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	})
	if err == nil || !strings.Contains(err.Error(), "no engine") {
		t.Fatalf("recover without engine = %v, want engine-missing error", err)
	}
}

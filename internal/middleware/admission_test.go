package middleware

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/pool"
	"ctxres/internal/strategy"
	"ctxres/internal/testutil/leakcheck"
)

// jitterWorkload builds a deterministic mixed workload: location contexts
// with occasional teleports (velocity violations), short-TTL entries that
// expire mid-run, and irrelevant-kind contexts riding along. Each call
// returns fresh contexts, since submission mutates their state.
func jitterWorkload() []*ctx.Context {
	var cs []*ctx.Context
	seq := uint64(1)
	for i := 0; i < 40; i++ {
		x := float64(i)
		if i%7 == 3 {
			x += 50 // teleport: violates the velocity constraint
		}
		var opts []ctx.Option
		if i%5 == 2 {
			opts = append(opts, ctx.WithTTL(3*time.Second))
		}
		cs = append(cs, loc(fmt.Sprintf("w%02d", i), seq, x, opts...))
		seq++
		if i%9 == 4 { // a kind no constraint quantifies over
			cs = append(cs, ctx.New("temperature", t0.Add(time.Duration(seq)*time.Second), nil,
				ctx.WithID(ctx.ID(fmt.Sprintf("tmp%02d", i))), ctx.WithSubject("room"),
				ctx.WithSource("thermo"), ctx.WithSeq(seq)))
			seq++
		}
	}
	return cs
}

func submitAll(t *testing.T, m *Middleware, cs []*ctx.Context) {
	t.Helper()
	for _, c := range cs {
		if _, err := m.Submit(c); err != nil {
			t.Fatalf("submit %s: %v", c.ID, err)
		}
	}
}

func waitPending(t *testing.T, m *Middleware, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for int(m.pending.Load()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending never reached %d (at %d)", n, m.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueShed(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(),
		WithAdmission(AdmissionOptions{MaxPending: 2}),
		WithHooks(on(EventAccept, func(Event) { started <- struct{}{}; <-block })))
	done := make(chan error, 2)
	go func() { _, err := m.Submit(loc("q1", 1, 0)); done <- err }()
	<-started // q1 now blocks inside its hook, holding the middleware lock
	go func() { _, err := m.Submit(loc("q2", 2, 1)); done <- err }()
	waitPending(t, m, 2)

	// Queue full: the third submission is shed without blocking.
	if _, err := m.Submit(loc("q3", 3, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rs := m.Resilience()
	if rs.OverloadShed != 1 || rs.Pending != 0 {
		t.Fatalf("resilience = %+v, want OverloadShed 1, Pending 0", rs)
	}
	if st := m.Stats(); st.Submitted != 2 {
		t.Fatalf("submitted = %d, want 2 (shed submission must not count)", st.Submitted)
	}
}

func TestDeadlineShed(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	_, err := m.SubmitOpts(loc("d1", 1, 0), SubmitOptions{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if rs := m.Resilience(); rs.DeadlineShed != 1 {
		t.Fatalf("deadlineShed = %d, want 1", rs.DeadlineShed)
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Fatalf("submitted = %d, want 0", st.Submitted)
	}
	// A live deadline admits normally.
	if _, err := m.SubmitOpts(loc("d2", 2, 0), SubmitOptions{Deadline: time.Now().Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedDifferential is the acceptance test for degraded mode:
// a run that defers every consistency check and catches up later must be
// byte-identical — pool, Σ, counters — to the always-check run on the
// same workload.
func TestDegradedDifferential(t *testing.T) {
	build := func(degraded bool) *Middleware {
		opts := []Option{}
		if degraded {
			// DegradeAt 1 makes every submission defer (pending includes
			// the submission itself), so the whole workload is replayed by
			// catch-up.
			opts = append(opts, WithAdmission(AdmissionOptions{DegradeAt: 1}))
		}
		return New(velocityChecker(t, 100, 1.5), strategy.NewDropBad(), opts...)
	}
	eager, lazy := build(false), build(true)

	// Phase 1: same workload into both; the lazy run defers everything.
	submitAll(t, eager, jitterWorkload())
	submitAll(t, lazy, jitterWorkload())
	if !lazy.Resilience().Degraded {
		t.Fatal("lazy middleware never degraded")
	}
	if lazy.Resilience().DeferredChecks == 0 {
		t.Fatal("no checks were deferred")
	}
	if err := lazy.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lazy.Resilience().Degraded {
		t.Fatal("still degraded after catch-up")
	}
	if e, l := durableFingerprint(t, eager), durableFingerprint(t, lazy); e != l {
		t.Fatalf("phase 1 fingerprints diverge:\neager: %s\nlazy:  %s", e, l)
	}

	// Phase 2: interleave reads (which force catch-up implicitly) with a
	// second submission wave.
	for _, m := range []*Middleware{eager, lazy} {
		if _, err := m.UseLatest(ctx.KindLocation, "peter"); err != nil {
			t.Fatal(err)
		}
	}
	more := func() []*ctx.Context {
		return []*ctx.Context{
			loc("m1", 60, 39), loc("m2", 61, 90), loc("m3", 62, 41),
		}
	}
	submitAll(t, eager, more())
	submitAll(t, lazy, more())
	c1, err1 := eager.UseLatest(ctx.KindLocation, "peter")
	c2, err2 := lazy.UseLatest(ctx.KindLocation, "peter")
	if (err1 == nil) != (err2 == nil) || (err1 == nil && c1.ID != c2.ID) {
		t.Fatalf("delivery diverged: %v/%v vs %v/%v", c1, err1, c2, err2)
	}
	if e, l := durableFingerprint(t, eager), durableFingerprint(t, lazy); e != l {
		t.Fatalf("phase 2 fingerprints diverge:\neager: %s\nlazy:  %s", e, l)
	}
	if es, ls := eager.Stats(), lazy.Stats(); es != ls {
		t.Fatalf("stats diverge: eager %+v, lazy %+v", es, ls)
	}
}

func TestDegradedReadForcesCatchUp(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(),
		WithAdmission(AdmissionOptions{DegradeAt: 1}))
	c := loc("r1", 1, 0)
	if _, err := m.Submit(c); err != nil {
		t.Fatal(err)
	}
	if !m.Resilience().Degraded || m.Pool().Len() != 0 {
		t.Fatalf("degraded=%v poolLen=%d, want deferred acknowledgement", m.Resilience().Degraded, m.Pool().Len())
	}
	got, err := m.Use(c.ID)
	if err != nil || got.ID != c.ID {
		t.Fatalf("use after deferral: %v, %v", got, err)
	}
	if m.Resilience().Degraded {
		t.Fatal("read did not force catch-up")
	}
	if rs := m.Resilience(); rs.CatchUps != 1 || rs.DeferredPending != 0 {
		t.Fatalf("resilience = %+v", rs)
	}
}

func TestDegradedDuplicateRejected(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(),
		WithAdmission(AdmissionOptions{DegradeAt: 1}))
	if _, err := m.Submit(loc("dup", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Duplicate of a deferred (not yet pooled) context.
	if _, err := m.Submit(loc("dup", 2, 1)); !errors.Is(err, pool.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if err := m.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Duplicate of the now-pooled context.
	if _, err := m.Submit(loc("dup", 3, 2)); !errors.Is(err, pool.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if st := m.Stats(); st.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1", st.Submitted)
	}
}

// slowChecker registers one location constraint whose predicate sleeps.
func slowChecker(tb testing.TB, d time.Duration) *constraint.Checker {
	tb.Helper()
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "slow",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Pred("sleepy", func([]*ctx.Context) bool {
				time.Sleep(d)
				return true
			}, "a")),
	})
	return ch
}

// panicChecker registers one location constraint whose predicate panics.
func panicChecker(tb testing.TB) *constraint.Checker {
	tb.Helper()
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "boom",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Pred("exploding", func([]*ctx.Context) bool {
				panic("predicate exploded")
			}, "a")),
	})
	return ch
}

func TestWatchdogCheckTimeout(t *testing.T) {
	// The abandoned check goroutine must exit on its own once the slow
	// predicate returns; leakcheck holds the test open until it does.
	defer leakcheck.Check(t)()
	m := New(slowChecker(t, 2*time.Second), strategy.NewDropLatest(),
		WithWatchdog(WatchdogOptions{CheckTimeout: 25 * time.Millisecond}))
	c := loc("wd1", 1, 0)
	if _, err := m.Submit(c); !errors.Is(err, ErrCheckTimeout) {
		t.Fatalf("err = %v, want ErrCheckTimeout", err)
	}
	if _, ok := m.Pool().Get(c.ID); ok {
		t.Fatal("aborted submission left in pool")
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Fatalf("submitted = %d, want 0 after rollback", st.Submitted)
	}
	if rs := m.Resilience(); rs.CheckTimeouts != 1 {
		t.Fatalf("checkTimeouts = %d, want 1", rs.CheckTimeouts)
	}
	// The middleware keeps serving: an irrelevant-kind context takes the
	// fast path and is admitted without a check.
	tmp := ctx.New("temperature", t0.Add(time.Second), nil,
		ctx.WithID("wd-temp"), ctx.WithSubject("room"), ctx.WithSource("thermo"))
	if _, err := m.Submit(tmp); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogCheckPanicContained(t *testing.T) {
	defer leakcheck.Check(t)()
	m := New(panicChecker(t), strategy.NewDropLatest(),
		WithWatchdog(WatchdogOptions{CheckTimeout: time.Second}))
	c := loc("wp1", 1, 0)
	_, err := m.Submit(c)
	if !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("err = %v, want ErrCheckFailed", err)
	}
	if !strings.Contains(err.Error(), "predicate exploded") {
		t.Fatalf("panic value lost from error: %v", err)
	}
	if _, ok := m.Pool().Get(c.ID); ok {
		t.Fatal("aborted submission left in pool")
	}
	if rs := m.Resilience(); rs.CheckPanics != 1 {
		t.Fatalf("checkPanics = %d, want 1", rs.CheckPanics)
	}
}

// panicOnUse wraps a strategy and panics when consulted about a use.
type panicOnUse struct{ strategy.Strategy }

func (panicOnUse) OnUse(*ctx.Context) (bool, strategy.Outcome) { panic("strategy exploded") }

func TestWatchdogStrategyPanicOnUse(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), panicOnUse{strategy.NewDropLatest()},
		WithWatchdog(WatchdogOptions{CheckTimeout: time.Second}))
	c := loc("sp1", 1, 0)
	if _, err := m.Submit(c); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use(c.ID); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("err = %v, want ErrCheckFailed", err)
	}
	if m.Pool().Used(c.ID) {
		t.Fatal("aborted use marked the context used")
	}
	if rs := m.Resilience(); rs.CheckPanics != 1 {
		t.Fatalf("checkPanics = %d, want 1", rs.CheckPanics)
	}
}

func TestQuarantineTripAndRecover(t *testing.T) {
	tr := health.NewTracker(health.Config{
		Window: 8, MinSamples: 2, TripRatio: 0.5, Cooldown: 10 * time.Second, ProbeCount: 1,
	})
	m := New(velocityChecker(t, 100, 1.5), strategy.NewDropLatest(), WithHealth(tr))

	// Clean submission, then a teleport: the violation scores the source
	// Inconsistent and the drop-latest discard scores it Bad — over the
	// trip ratio.
	if _, err := m.Submit(loc("h1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if vios, err := m.Submit(loc("h2", 2, 50)); err != nil || len(vios) == 0 {
		t.Fatalf("teleport: vios=%d err=%v, want a violation", len(vios), err)
	}
	if st := tr.State("tracker"); st != health.Open {
		t.Fatalf("breaker = %v, want open", st)
	}

	// Quarantined within the cooldown: acknowledged-but-dropped.
	if _, err := m.Submit(loc("h3", 3, 1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	if rs := m.Resilience(); rs.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", rs.Quarantined)
	}
	if st := m.Stats(); st.Submitted != 2 {
		t.Fatalf("submitted = %d, want 2 (quarantined submission dropped)", st.Submitted)
	}

	// Logical time passes the cooldown: the next submission is the
	// half-open probe; clean, so the breaker closes again.
	if _, err := m.Submit(loc("h4", 13, 1)); err != nil {
		t.Fatal(err)
	}
	if st := tr.State("tracker"); st != health.Closed {
		t.Fatalf("breaker = %v, want closed after clean probe", st)
	}
	snap := m.HealthSnapshot()
	if snap == nil || snap.Trips != 1 || snap.Recoveries != 1 {
		t.Fatalf("health snapshot = %+v, want 1 trip, 1 recovery", snap)
	}
}

// TestDegradedJournalRecovery pins the soundness of journaling deferred
// submissions at acknowledgement time: a recovery replays them through
// the eager-checking path, which must land on the same state catch-up
// built live.
func TestDegradedJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	build := func() *Middleware {
		return New(velocityChecker(t, 100, 1.5), strategy.NewDropBad(),
			WithAdmission(AdmissionOptions{DegradeAt: 1}))
	}
	m := build()
	if err := m.AttachJournal(openTestJournal(t, dir)); err != nil {
		t.Fatal(err)
	}
	submitAll(t, m, jitterWorkload())
	if !m.Resilience().Degraded {
		t.Fatal("never degraded")
	}
	// CloseJournal must catch up before the final stats annotation.
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if m.Resilience().Degraded {
		t.Fatal("CloseJournal did not catch up")
	}
	rec, rep, err := Recover(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatsChecked == 0 {
		t.Fatal("recovery never cross-checked stats")
	}
	if live, rcv := durableFingerprint(t, m), durableFingerprint(t, rec); live != rcv {
		t.Fatalf("recovered state diverges:\nlive:      %s\nrecovered: %s", live, rcv)
	}
}

// TestDegradedCheckpoint covers the snapshot path: a checkpoint taken
// while degraded must fold the deferred submissions in first, since their
// submit records are already inside the snapshot's covered prefix.
func TestDegradedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	build := func() *Middleware {
		return New(velocityChecker(t, 100, 1.5), strategy.NewDropBad(),
			WithAdmission(AdmissionOptions{DegradeAt: 1}))
	}
	m := build()
	if err := m.AttachJournal(openTestJournal(t, dir)); err != nil {
		t.Fatal(err)
	}
	work := jitterWorkload()
	submitAll(t, m, work[:20])
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Resilience().Degraded {
		t.Fatal("Checkpoint did not catch up")
	}
	submitAll(t, m, work[20:])
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if live, rcv := durableFingerprint(t, m), durableFingerprint(t, rec); live != rcv {
		t.Fatalf("recovered state diverges:\nlive:      %s\nrecovered: %s", live, rcv)
	}
}

// TestWatchdogRollbackJournal verifies a watchdog abort leaves no submit
// record behind: recovery rebuilds a state without the aborted context.
func TestWatchdogRollbackJournal(t *testing.T) {
	dir := t.TempDir()
	build := func() *Middleware {
		return New(slowChecker(t, 2*time.Second), strategy.NewDropLatest(),
			WithWatchdog(WatchdogOptions{CheckTimeout: 25 * time.Millisecond}))
	}
	m := build()
	if err := m.AttachJournal(openTestJournal(t, dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(loc("gone", 1, 0)); !errors.Is(err, ErrCheckTimeout) {
		t.Fatalf("err = %v, want ErrCheckTimeout", err)
	}
	tmp := ctx.New("temperature", t0.Add(time.Second), nil,
		ctx.WithID("kept"), ctx.WithSubject("room"), ctx.WithSource("thermo"))
	if _, err := m.Submit(tmp); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Pool().Get("gone"); ok {
		t.Fatal("aborted submission resurrected by recovery")
	}
	if _, ok := rec.Pool().Get("kept"); !ok {
		t.Fatal("surviving submission lost by recovery")
	}
	// The abort is journaled as an annotation (check-fail + final stats).
	if rep.Annotations < 2 {
		t.Fatalf("annotations = %d, want the check-fail annotation replay-skipped", rep.Annotations)
	}
	if live, rcv := durableFingerprint(t, m), durableFingerprint(t, rec); live != rcv {
		t.Fatalf("recovered state diverges:\nlive:      %s\nrecovered: %s", live, rcv)
	}
}

// TestDefaultsUnchanged pins that a middleware without any resilience
// option reports zeroed resilience stats and never defers or sheds.
func TestDefaultsUnchanged(t *testing.T) {
	m := New(velocityChecker(t, 100, 1.5), strategy.NewDropBad())
	submitAll(t, m, jitterWorkload())
	if rs := m.Resilience(); rs != (ResilienceStats{}) {
		t.Fatalf("resilience = %+v, want zero value", rs)
	}
	if m.Resilience().Degraded {
		t.Fatal("degraded without admission options")
	}
}

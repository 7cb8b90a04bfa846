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
// option reports zeroed resilience stats and never sheds.
func TestDefaultsUnchanged(t *testing.T) {
	m := New(velocityChecker(t, 100, 1.5), strategy.NewDropBad())
	submitAll(t, m, jitterWorkload())
	if rs := m.Resilience(); rs != (ResilienceStats{}) {
		t.Fatalf("resilience = %+v, want zero value", rs)
	}
}

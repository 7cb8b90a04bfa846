package middleware

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func velocityChecker(tb testing.TB, reach uint64, limit float64) *constraint.Checker {
	tb.Helper()
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "vel",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.StreamWithin("a", "b", reach),
					),
					constraint.VelocityBelow("a", "b", limit),
				))),
	})
	return ch
}

// on returns a hook that calls f for each event of type typ.
func on(typ EventType, f func(e Event)) Hook {
	return func(evs []Event) {
		for _, e := range evs {
			if e.Type == typ {
				f(e)
			}
		}
	}
}

func loc(id string, seq uint64, x float64, opts ...ctx.Option) *ctx.Context {
	opts = append([]ctx.Option{
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("tracker"),
	}, opts...)
	return ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second),
		ctx.Point{X: x}, opts...)
}

func scenarioA() []*ctx.Context {
	cs := []*ctx.Context{
		loc("d1", 1, 0), loc("d2", 2, 1), loc("d3", 3, 9), loc("d4", 4, 3), loc("d5", 5, 4),
	}
	cs[2].Truth.Corrupted = true
	return cs
}

func TestSubmitValidation(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	if _, err := m.Submit(nil); err == nil {
		t.Fatal("nil accepted")
	}
	bad := loc("x", 1, 0)
	bad.Kind = ""
	if _, err := m.Submit(bad); !errors.Is(err, ctx.ErrNoKind) {
		t.Fatalf("err = %v", err)
	}
	good := loc("ok", 1, 0)
	if _, err := m.Submit(good); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(good); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestIrrelevantKindFastPath(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	c := ctx.New(ctx.KindPresence, t0, nil, ctx.WithID("p1"))
	vios, err := m.Submit(c)
	if err != nil || len(vios) != 0 {
		t.Fatalf("Submit = %v, %v", vios, err)
	}
	if c.State() != ctx.Consistent {
		t.Fatalf("state = %v, want consistent", c.State())
	}
	got, err := m.Use("p1")
	if err != nil || got.ID != "p1" {
		t.Fatalf("Use = %v, %v", got, err)
	}
}

func TestDropLatestPipelineScenarioA(t *testing.T) {
	var discarded []ctx.ID
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(), WithHooks(on(EventDiscard, func(e Event) {
		if e.Reason != ReasonOnAddition {
			t.Errorf("reason = %v", e.Reason)
		}
		discarded = append(discarded, e.Context.ID)
	})))
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(discarded) != 1 || discarded[0] != "d3" {
		t.Fatalf("discarded = %v", discarded)
	}
	if _, err := m.Use("d3"); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("Use(d3) err = %v", err)
	}
	if _, err := m.Use("d4"); err != nil {
		t.Fatalf("Use(d4) err = %v", err)
	}
	st := m.Stats()
	if st.Submitted != 5 || st.Discarded != 1 || st.Delivered != 1 || st.Detected != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestDropBadPipelineScenarioA(t *testing.T) {
	m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad())
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing discarded at addition time.
	if st := m.Stats(); st.Discarded != 0 || st.Detected != 4 {
		t.Fatalf("Stats = %+v", st)
	}
	// Use d1 → delivered; d3 becomes bad.
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	// Use d3 → refused as inconsistent.
	if _, err := m.Use("d3"); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Use(d3) err = %v", err)
	}
	// Everyone else delivers.
	for _, id := range []ctx.ID{"d2", "d4", "d5"} {
		if _, err := m.Use(id); err != nil {
			t.Fatalf("Use(%s) err = %v", id, err)
		}
	}
	st := m.Stats()
	if st.Delivered != 4 || st.Rejected != 1 || st.Discarded != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	// Re-reading a used context does not re-enter resolution.
	if _, err := m.Use("d1"); err != nil {
		t.Fatalf("re-read err = %v", err)
	}
	if st2 := m.Stats(); st2.Delivered != st.Delivered {
		t.Fatal("re-read counted as delivery")
	}
}

func TestUseErrors(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	if _, err := m.Use("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	short := loc("s", 1, 0, ctx.WithTTL(2*time.Second))
	if _, err := m.Submit(short); err != nil {
		t.Fatal(err)
	}
	m.AdvanceTo(t0.Add(time.Minute))
	if _, err := m.Use("s"); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpiryNotifiesStrategy(t *testing.T) {
	var expired []ctx.ID
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(), WithHooks(on(EventExpire, func(e Event) {
		expired = append(expired, e.Context.ID)
	})))
	short := loc("s", 1, 0, ctx.WithTTL(2*time.Second))
	if _, err := m.Submit(short); err != nil {
		t.Fatal(err)
	}
	m.AdvanceTo(t0.Add(time.Minute))
	if len(expired) != 1 || expired[0] != "s" {
		t.Fatalf("expired = %v", expired)
	}
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestUseLatest(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	for _, c := range []*ctx.Context{loc("d1", 1, 0), loc("d2", 2, 1)} {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.UseLatest(ctx.KindLocation, "peter")
	if err != nil || got.ID != "d2" {
		t.Fatalf("UseLatest = %v, %v", got, err)
	}
	if _, err := m.UseLatest(ctx.KindLocation, "alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.UseLatest(ctx.KindRFIDRead, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSituationsEvaluateOnDelivery(t *testing.T) {
	eng := situation.NewEngine()
	eng.MustRegister(&situation.Situation{
		Name: "peter-present",
		Formula: constraint.Exists("a", ctx.KindLocation,
			constraint.SubjectIs("a", "peter")),
	})
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(), WithSituations(eng))
	if _, err := m.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Not yet delivered: no activation.
	if eng.Active("peter-present") {
		t.Fatal("situation activated before delivery")
	}
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	if !eng.Active("peter-present") {
		t.Fatal("situation not activated by delivery")
	}
	if st := m.Stats(); st.Situations != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestOnDetectHook(t *testing.T) {
	var detected []string
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(), WithHooks(on(EventDetect, func(e Event) {
		detected = append(detected, e.Violation.Link.Key())
	})))
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(detected) != 2 || detected[0] != "d2|d3" || detected[1] != "d3|d4" {
		t.Fatalf("detected = %v", detected)
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	if _, err := m.Submit(loc("d2", 2, 1)); err != nil {
		t.Fatal(err)
	}
	high := m.Now()
	// An out-of-order older context must not move the clock backwards.
	if _, err := m.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if m.Now().Before(high) {
		t.Fatal("clock moved backwards")
	}
	m.AdvanceTo(t0) // backwards AdvanceTo is a no-op
	if m.Now().Before(high) {
		t.Fatal("AdvanceTo moved clock backwards")
	}
}

func TestConcurrentSubmitUse(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := string(rune('A' + g))
			for i := 1; i <= 50; i++ {
				c := ctx.NewLocation("p"+src, t0.Add(time.Duration(i)*time.Second),
					ctx.Point{X: float64(i)},
					ctx.WithSeq(uint64(i)), ctx.WithSource(src))
				if _, err := m.Submit(c); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%5 == 0 {
					_, _ = m.UseLatest(ctx.KindLocation, "p"+src)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Submitted != 200 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestSituationsDeactivateOnExpiry(t *testing.T) {
	eng := situation.NewEngine()
	eng.MustRegister(&situation.Situation{
		Name: "peter-present",
		Formula: constraint.Exists("a", ctx.KindLocation,
			constraint.SubjectIs("a", "peter")),
	})
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(), WithSituations(eng))
	short := loc("d1", 1, 0, ctx.WithTTL(5*time.Second))
	if _, err := m.Submit(short); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	if !eng.Active("peter-present") {
		t.Fatal("not active after delivery")
	}
	// The delivered context expires; the situation must deactivate on the
	// next evaluation, which the next delivery runs.
	anna := ctx.NewLocation("anna", t0.Add(time.Minute), ctx.Point{},
		ctx.WithID("a1"), ctx.WithSeq(60), ctx.WithSource("tracker"))
	if _, err := m.Submit(anna); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("a1"); err != nil {
		t.Fatal(err)
	}
	if eng.Active("peter-present") {
		t.Fatal("still active after expiry")
	}
}

func TestPoolCompactionDuringRun(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	for i := 1; i <= 50; i++ {
		c := loc(string(rune('a'+i%26))+"-"+string(rune('0'+i/26)), uint64(i),
			float64(i), ctx.WithTTL(4*time.Second))
		c.ID = ctx.ID(c.ID) + ctx.NextID("x") // ensure uniqueness
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	m.AdvanceTo(t0.Add(time.Hour)) // everything expires
	removed := m.Pool().Compact()
	if removed == 0 {
		t.Fatal("nothing compacted")
	}
	if m.Pool().Len() != 0 {
		t.Fatalf("pool retains %d entries", m.Pool().Len())
	}
	// The middleware still works after compaction.
	fresh := ctx.NewLocation("peter", t0.Add(2*time.Hour), ctx.Point{X: 1},
		ctx.WithSeq(100), ctx.WithSource("tracker"))
	if _, err := m.Submit(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use(fresh.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitManyKindsMixed(t *testing.T) {
	// Location constraints must ignore other kinds entirely.
	m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad())
	for i := 1; i <= 20; i++ {
		locCtx := loc(string(rune('a'+i)), uint64(i), float64(i))
		if _, err := m.Submit(locCtx); err != nil {
			t.Fatal(err)
		}
		other := ctx.New(ctx.KindPresence, t0.Add(time.Duration(i)*time.Second),
			map[string]ctx.Value{"n": ctx.Int(int64(i))})
		if vios, err := m.Submit(other); err != nil || len(vios) != 0 {
			t.Fatalf("presence context: %v %v", vios, err)
		}
	}
	if st := m.Stats(); st.Detected != 0 {
		t.Fatalf("clean walk detected %d inconsistencies", st.Detected)
	}
}

// rogueStrategy returns discards for contexts the pool has never seen, to
// exercise the middleware's tolerance of misbehaving plug-ins.
type rogueStrategy struct{}

func (rogueStrategy) Name() string { return "ROGUE" }
func (rogueStrategy) OnAddition(c *ctx.Context, _ []constraint.Violation) strategy.Outcome {
	ghost := ctx.NewLocation("nobody", t0, ctx.Point{}, ctx.WithID("ghost-context"))
	return strategy.Outcome{Discard: []*ctx.Context{ghost, c}}
}
func (rogueStrategy) OnUse(*ctx.Context) (bool, strategy.Outcome) {
	return true, strategy.Outcome{}
}
func (rogueStrategy) OnExpire(*ctx.Context) {}
func (rogueStrategy) Reset()                {}

func TestMiddlewareToleratesRogueStrategy(t *testing.T) {
	m := New(velocityChecker(t, 1, 1.5), rogueStrategy{})
	c := loc("d1", 1, 0)
	if _, err := m.Submit(c); err != nil {
		t.Fatal(err)
	}
	// The unknown ghost discard is ignored; the known one lands.
	if st := m.Stats(); st.Discarded != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if !m.Pool().Discarded("d1") {
		t.Fatal("submitted context not discarded")
	}
}

func TestDiscardReasonStrings(t *testing.T) {
	if ReasonOnAddition.String() != "on-addition" ||
		ReasonOnUse.String() != "on-use" ||
		DiscardReason(0).String() != "invalid" {
		t.Fatal("reason strings wrong")
	}
}

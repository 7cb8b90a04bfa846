package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func velocityChecker(tb testing.TB) *constraint.Checker {
	tb.Helper()
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "vel",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.StreamWithin("a", "b", 1),
					),
					constraint.VelocityBelow("a", "b", 1.5),
				))),
	})
	return ch
}

func loc(id string, seq uint64, x float64, corrupted bool) *ctx.Context {
	c := ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second),
		ctx.Point{X: x},
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("tracker"))
	c.Truth.Corrupted = corrupted
	return c
}

func TestCollectorCountsThroughMiddleware(t *testing.T) {
	col := NewCollector()
	m := middleware.New(velocityChecker(t), strategy.NewDropLatest(),
		middleware.WithHooks(col.Hooks()))
	// d3 corrupted: jumps. Drop-latest discards d3 on arrival.
	for _, c := range []*ctx.Context{
		loc("d1", 1, 0, false),
		loc("d2", 2, 1, false),
		loc("d3", 3, 9, true),
		loc("d4", 4, 3, false),
	} {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []ctx.ID{"d1", "d2", "d4"} {
		if _, err := m.Use(id); err != nil {
			t.Fatal(err)
		}
	}
	if col.Submitted() != 4 || col.SubmittedCorrupted() != 1 {
		t.Fatalf("submissions: %d/%d", col.Submitted(), col.SubmittedCorrupted())
	}
	if col.UsedContexts() != 3 || col.UsedExpected() != 3 || col.UsedCorrupted() != 0 {
		t.Fatalf("used: %d/%d/%d", col.UsedContexts(), col.UsedExpected(), col.UsedCorrupted())
	}
	if col.Discarded() != 1 {
		t.Fatalf("discarded = %d", col.Discarded())
	}
	if !almost(col.SurvivalRate(), 1) {
		t.Fatalf("SurvivalRate = %v", col.SurvivalRate())
	}
	if !almost(col.RemovalPrecision(), 1) {
		t.Fatalf("RemovalPrecision = %v", col.RemovalPrecision())
	}
	if !almost(col.RemovalRecall(), 1) {
		t.Fatalf("RemovalRecall = %v", col.RemovalRecall())
	}
	if col.Detected() != 1 {
		t.Fatalf("Detected = %d", col.Detected())
	}
}

func TestCollectorPenalizesWrongDiscards(t *testing.T) {
	col := NewCollector()
	m := middleware.New(velocityChecker(t), strategy.NewDropAll(),
		middleware.WithHooks(col.Hooks()))
	// Drop-all discards d2 (expected) and d3 (corrupted).
	for _, c := range []*ctx.Context{
		loc("d1", 1, 0, false),
		loc("d2", 2, 1, false),
		loc("d3", 3, 9, true),
	} {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if col.Discarded() != 2 {
		t.Fatalf("discarded = %d", col.Discarded())
	}
	if !almost(col.SurvivalRate(), 0.5) { // 1 of 2 expected lost
		t.Fatalf("SurvivalRate = %v", col.SurvivalRate())
	}
	if !almost(col.RemovalPrecision(), 0.5) { // 1 of 2 discards was corrupted
		t.Fatalf("RemovalPrecision = %v", col.RemovalPrecision())
	}
}

func TestVacuousRates(t *testing.T) {
	col := NewCollector()
	if col.SurvivalRate() != 1 || col.RemovalPrecision() != 1 || col.RemovalRecall() != 1 {
		t.Fatal("vacuous rates not 1")
	}
}

func TestSnapshotAndNormalize(t *testing.T) {
	run := Rates{UsedContexts: 85, UsedExpected: 80, Activations: 9}
	baseline := Rates{UsedContexts: 100, UsedExpected: 100, Activations: 12}
	n := Normalize(run, baseline)
	if !almost(n.CtxUseRate, 0.8) {
		t.Fatalf("CtxUseRate = %v", n.CtxUseRate)
	}
	if !almost(n.SitActRate, 0.75) {
		t.Fatalf("SitActRate = %v", n.SitActRate)
	}
	// Degenerate baseline with no activations: 0/0 → 1.
	n2 := Normalize(Rates{}, Rates{})
	if n2.CtxUseRate != 1 || n2.SitActRate != 1 {
		t.Fatalf("degenerate normalize = %+v", n2)
	}
}

func TestSnapshotFields(t *testing.T) {
	col := NewCollector()
	col.onAccept(loc("a", 1, 0, false))
	col.onDeliver(loc("a", 1, 0, false))
	col.onDiscard(loc("b", 2, 9, true), middleware.ReasonOnAddition)
	r := col.Snapshot(3)
	if r.UsedContexts != 1 || r.Activations != 3 || r.DiscardedContexts != 1 {
		t.Fatalf("Snapshot = %+v", r)
	}
	if !almost(r.RemovalPrecision, 1) {
		t.Fatalf("RemovalPrecision = %v", r.RemovalPrecision)
	}
}

// TestCollectorConcurrentReaders races a mid-run reader (as a status
// endpoint or progress reporter would) against submissions flowing
// through a middleware. Run under -race this proves the collector's own
// locking: the hooks fire under the middleware lock, but nothing else
// serializes the accessor methods against them.
func TestCollectorConcurrentReaders(t *testing.T) {
	col := NewCollector()
	m := middleware.New(velocityChecker(t), strategy.NewDropLatest(),
		middleware.WithHooks(col.Hooks()))

	const goroutines = 4
	const perG = 50
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			x := 0.0
			for i := 0; i < perG; i++ {
				x += 1
				corrupted := i%5 == 4
				if corrupted {
					x += 10
				}
				c := ctx.NewLocation(fmt.Sprintf("walker-%d", g),
					t0.Add(time.Duration(i)*time.Second), ctx.Point{X: x},
					ctx.WithID(ctx.ID(fmt.Sprintf("c%d-%03d", g, i))),
					ctx.WithSeq(uint64(i+1)), ctx.WithSource("stress"))
				c.Truth.Corrupted = corrupted
				if _, err := m.Submit(c); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					_, _ = m.Use(c.ID)
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = col.Snapshot(0)
			_ = col.SurvivalRate()
			_ = col.RemovalPrecision()
			_ = col.RemovalRecall()
			_ = col.Submitted()
			_ = col.Detected()
			_ = col.UsedContexts()
			_ = col.Discarded()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := col.Submitted(); got != goroutines*perG {
		t.Fatalf("submitted = %d, want %d", got, goroutines*perG)
	}
	st := m.Stats()
	if col.Detected() != st.Detected {
		t.Fatalf("collector detected %d, middleware stats %d", col.Detected(), st.Detected)
	}
	snap := col.Snapshot(0)
	if snap.UsedContexts != col.UsedContexts() || snap.DiscardedContexts != col.Discarded() {
		t.Fatalf("snapshot %+v disagrees with accessors", snap)
	}
}

package soak

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/errmodel"
	"ctxres/internal/health"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/testutil/leakcheck"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

// soakDuration returns the storm duration: the CTXRES_SOAK environment
// variable (a Go duration, set by `make soak` for multi-minute runs) or a
// short default that keeps the harness cheap enough for the regular
// suite.
func soakDuration(tb testing.TB) time.Duration {
	tb.Helper()
	s := os.Getenv("CTXRES_SOAK")
	if s == "" {
		return 2 * time.Second
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		tb.Fatalf("CTXRES_SOAK = %q: want a positive Go duration", s)
	}
	return d
}

// soakChecker is the daemon's velocity constraint plus two
// instrumentation constraints. "no-poison" panics when a poisoned
// context reaches evaluation, exercising the watchdog's panic
// containment. "weigh" sleeps briefly for contexts tagged slow, giving
// burst traffic a realistic checking cost so admission control has
// something to shed; incremental checking binds only the addition, so
// the weight is paid once per tagged submission, never retroactively.
func soakChecker() *constraint.Checker {
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
	ch.MustRegister(&constraint.Constraint{
		Name: "no-poison",
		Formula: constraint.Forall("p", ctx.KindLocation,
			constraint.Pred("safe", func(bound []*ctx.Context) bool {
				if _, poisoned := bound[0].Field("poison"); poisoned {
					panic("soak: poisoned context reached the checker")
				}
				return true
			}, "p")),
	})
	ch.MustRegister(&constraint.Constraint{
		Name: "weigh",
		Formula: constraint.Forall("w", ctx.KindLocation,
			constraint.Pred("weight", func(bound []*ctx.Context) bool {
				if _, slow := bound[0].Field("slow"); slow {
					time.Sleep(200 * time.Microsecond)
				}
				return true
			}, "w")),
	})
	return ch
}

// counters tallies client-side outcomes across all storm workers.
type counters struct {
	submitted   atomic.Int64
	accepted    atomic.Int64
	overloaded  atomic.Int64 // typed "overloaded" rejections
	quarantined atomic.Int64 // typed "source-quarantined" rejections
	aborted     atomic.Int64 // typed "check-timeout" rejections
	appErr      atomic.Int64 // other remote errors (chaos-retry duplicates etc.)
	transport   atomic.Int64 // client exhausted its retries
}

func (ct *counters) classify(err error) {
	switch {
	case err == nil:
	case daemon.ErrorCode(err) == daemon.CodeOverloaded:
		ct.overloaded.Add(1)
	case daemon.ErrorCode(err) == daemon.CodeQuarantined:
		ct.quarantined.Add(1)
	case daemon.ErrorCode(err) == daemon.CodeCheckTimeout:
		ct.aborted.Add(1)
	case daemon.ErrorCode(err) != "":
		ct.appErr.Add(1)
	default:
		ct.transport.Add(1)
	}
}

// TestSoakStorm drives a live daemon through simultaneous overload
// bursts, a flapping corrupted source, poisoned checks, and transport
// chaos, then asserts the storm was survived: load was shed with typed
// codes, the flapping source tripped its breaker and recovered through
// half-open probing, poisoned checks were contained by the watchdog,
// memory stayed bounded, and a fresh client gets clean service afterward
// with every goroutine returned to baseline.
func TestSoakStorm(t *testing.T) {
	defer leakcheck.Check(t)()
	dur := soakDuration(t)

	reg := telemetry.NewRegistry()
	tracker := health.NewTracker(health.Config{
		Window:     16,
		MinSamples: 4,
		TripRatio:  0.5,
		// Logical time: the shared clock below advances one second per
		// submission across all workers, so this cooldown spans a few
		// dozen submissions, not a minute of wall time.
		Cooldown:   60 * time.Second,
		ProbeCount: 2,
	})
	tracker.Register(reg)
	mw := middleware.New(soakChecker(), strategy.NewDropBad(),
		middleware.WithTelemetry(reg),
		middleware.WithAdmission(middleware.AdmissionOptions{MaxPending: 4}),
		middleware.WithWatchdog(middleware.WatchdogOptions{CheckTimeout: 2 * time.Second}),
		middleware.WithHealth(tracker),
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultconn.Chaos(ln, 42, faultconn.ChaosConfig{
		FaultRate: 0.15,
		MinBytes:  512,
		MaxBytes:  8192,
		Stall:     2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	srv := daemon.ServeListener(chaos, mw, nil,
		daemon.WithCompactInterval(100*time.Millisecond),
		daemon.WithDrainTimeout(2*time.Second))
	defer srv.Shutdown()
	addr := srv.Addr().String()

	var (
		ct   counters
		tick atomic.Int64 // shared logical clock: seconds past t0
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	// One shared clock keeps every source's timestamps comparable, so the
	// middleware's logical clock (max timestamp seen) never leaps past a
	// slow producer and mass-expires its fresh contexts.
	stamp := func() time.Time {
		return t0.Add(time.Duration(tick.Add(1)) * time.Second)
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	dial := func() (*daemon.Client, error) {
		return daemon.DialOptions(addr, daemon.ClientOptions{
			Timeout:     3 * time.Second,
			MaxAttempts: 5,
		})
	}

	// Steady producers: well-behaved sources that submit, then read their
	// context back. The read retires the entry from the checking buffer
	// (bounding the universe), and the finite TTL lets compaction reclaim
	// it once used.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := dial()
			if err != nil {
				t.Errorf("producer %d dial: %v", i, err)
				return
			}
			defer client.Close()
			var seq uint64
			for !stopped() {
				seq++
				c := ctx.NewLocation(fmt.Sprintf("user-%d", i), stamp(),
					ctx.Point{X: float64(seq)},
					ctx.WithID(ctx.ID(fmt.Sprintf("p%d-%d", i, seq))),
					ctx.WithSeq(seq),
					ctx.WithSource(fmt.Sprintf("sensor-%d", i)),
					ctx.WithTTL(time.Hour))
				ct.submitted.Add(1)
				_, err := client.Submit(c)
				ct.classify(err)
				if err == nil {
					ct.accepted.Add(1)
					if _, err := client.Use(c.ID); err != nil {
						ct.classify(err)
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	// Flapping source: its submissions are corrupted with large location
	// jumps until 12 of them have landed (admission sheds most attempts
	// under the storm, and a shed attempt never reaches a check), so
	// consecutive readings violate the velocity bound and the breaker
	// trips; afterwards it submits clean readings forever and must recover
	// through half-open probing. Zero TTL keeps its latest reading
	// checkable for the next velocity pair; each accepted submission
	// retires the previous one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := dial()
		if err != nil {
			t.Errorf("flapper dial: %v", err)
			return
		}
		defer client.Close()
		inj, err := errmodel.NewInjector(1, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Errorf("flapper injector: %v", err)
			return
		}
		inj.Register(ctx.KindLocation, errmodel.LocationJump(200, 400))
		var seq, landed uint64
		var prev ctx.ID
		for !stopped() {
			seq++
			c := ctx.NewLocation("flappy", stamp(), ctx.Point{X: float64(seq)},
				ctx.WithID(ctx.ID(fmt.Sprintf("f-%d", seq))),
				ctx.WithSeq(seq), ctx.WithSource("flapper"))
			if landed < 12 {
				inj.Apply(c)
			}
			ct.submitted.Add(1)
			_, err := client.Submit(c)
			ct.classify(err)
			if err == nil {
				landed++
				ct.accepted.Add(1)
				if prev != "" {
					_, _ = client.Use(prev) // may be discarded or swept; both fine
				}
				prev = c.ID
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Poisoner: every submission carries a field that makes the
	// "no-poison" predicate panic, so each one must be contained by the
	// watchdog and rolled back instead of wedging the pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := dial()
		if err != nil {
			t.Errorf("poisoner dial: %v", err)
			return
		}
		defer client.Close()
		var seq uint64
		for !stopped() {
			seq++
			c := ctx.NewLocation("toxic", stamp(), ctx.Point{X: 1},
				ctx.WithID(ctx.ID(fmt.Sprintf("x-%d", seq))),
				ctx.WithSeq(seq), ctx.WithSource("toxic"))
			c.Fields["poison"] = ctx.Bool(true)
			ct.submitted.Add(1)
			_, err := client.Submit(c)
			ct.classify(err)
			select {
			case <-stop:
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()

	// Burst clients: anonymous sources (exempt from quarantine) that
	// hammer the daemon in pulses with a tight per-request budget. Their
	// contexts carry the "slow" tag, so each one costs real checking
	// time: the submit queue fills, and checks queued behind the lock
	// push later arrivals past their deadline — both flavors of the typed
	// overloaded rejection.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := dial()
			if err != nil {
				t.Errorf("burster %d dial: %v", i, err)
				return
			}
			defer client.Close()
			var seq uint64
			for !stopped() {
				burstEnd := time.Now().Add(30 * time.Millisecond)
				for time.Now().Before(burstEnd) && !stopped() {
					seq++
					c := ctx.NewLocation(fmt.Sprintf("burst-%d", i), stamp(),
						ctx.Point{X: float64(seq)},
						ctx.WithID(ctx.ID(fmt.Sprintf("b%d-%d", i, seq))),
						ctx.WithSeq(seq),
						ctx.WithTTL(2*time.Minute)) // logical: expires ~120 submissions later
					c.Fields["slow"] = ctx.Bool(true)
					ct.submitted.Add(1)
					_, err := client.SubmitBudget(c, time.Millisecond)
					ct.classify(err)
				}
				select {
				case <-stop:
				case <-time.After(220 * time.Millisecond):
				}
			}
		}(i)
	}

	timer := time.AfterFunc(dur, func() { close(stop) })
	defer timer.Stop()
	wg.Wait()

	// Clean recovery: a fresh, patient client must get full service
	// through the same chaos listener. A submit whose reply the chaos
	// cut may still have landed, so allow a few attempts with fresh IDs.
	post, err := daemon.DialOptions(addr, daemon.ClientOptions{
		Timeout:     5 * time.Second,
		MaxAttempts: 8,
	})
	if err != nil {
		t.Fatalf("post-storm dial: %v", err)
	}
	defer post.Close()
	var finID ctx.ID
	for attempt := 1; attempt <= 5; attempt++ {
		id := ctx.ID(fmt.Sprintf("aftermath-%d", attempt))
		fin := ctx.NewLocation("aftermath", stamp(), ctx.Point{},
			ctx.WithID(id), ctx.WithSeq(uint64(attempt)),
			ctx.WithSource("aftermath"))
		if _, err = post.Submit(fin); err == nil {
			finID = id
			break
		}
	}
	if finID == "" {
		t.Fatalf("post-storm submit never succeeded: %v", err)
	}
	if _, err := post.Use(finID); err != nil {
		t.Fatalf("post-storm use: %v", err)
	}

	rs, hs, err := post.Resilience()
	if err != nil {
		t.Fatalf("post-storm resilience stats: %v", err)
	}
	t.Logf("storm %v: submitted=%d accepted=%d overloaded=%d quarantined=%d aborted=%d appErr=%d transport=%d",
		dur, ct.submitted.Load(), ct.accepted.Load(), ct.overloaded.Load(),
		ct.quarantined.Load(), ct.aborted.Load(), ct.appErr.Load(), ct.transport.Load())
	t.Logf("resilience: %+v", rs)

	if ct.overloaded.Load() == 0 {
		t.Error("no submission was shed with the typed overloaded code")
	}
	if rs.OverloadShed+rs.DeadlineShed == 0 {
		t.Errorf("middleware recorded no shedding: %+v", rs)
	}
	if rs.CheckPanics == 0 {
		t.Error("watchdog never contained a poisoned check")
	}
	if ct.quarantined.Load() == 0 {
		t.Error("no submission was rejected with the typed source-quarantined code")
	}
	if hs == nil {
		t.Fatal("no health snapshot after the storm")
	}
	if hs.Trips < 1 || hs.Recoveries < 1 {
		t.Errorf("breaker lifecycle incomplete: trips=%d recoveries=%d dropped=%d",
			hs.Trips, hs.Recoveries, hs.Dropped)
	}

	// Memory stays bounded: TTL expiry plus periodic compaction keep the
	// live pool far below the total accepted during a long storm.
	if _, err := mw.Compact(); err != nil {
		t.Fatalf("post-storm compact: %v", err)
	}
	if n := mw.Pool().Len(); n > 10000 {
		t.Errorf("pool not bounded after storm: %d live entries", n)
	}
	if ct.accepted.Load() == 0 {
		t.Error("storm accepted nothing; harness generated no real load")
	}
}

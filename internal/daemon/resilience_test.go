package daemon

// Tests for the overload-resilience surface of the protocol: typed
// rejection codes (overloaded, source-quarantined, check-timeout), the
// submit deadline budget, and the resilience/health stats op fields.

import (
	"errors"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
	"ctxres/internal/testutil/leakcheck"
)

// startServerWith brings up a server over a middleware built with the
// given extra options; it shuts down with the test.
func startServerWith(t *testing.T, opts ...middleware.Option) (*Server, *Client) {
	t.Helper()
	t.Cleanup(leakcheck.Check(t))
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(), opts...)
	srv, err := Serve("127.0.0.1:0", mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return srv, client
}

// wantCode asserts err is a RemoteError carrying the given code and that
// ErrorCode agrees.
func wantCode(t *testing.T, err error, code Code) {
	t.Helper()
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError with code %q", err, code)
	}
	if remote.Code != code {
		t.Fatalf("code = %q, want %q (err: %v)", remote.Code, code, err)
	}
	if got := ErrorCode(err); got != code {
		t.Fatalf("ErrorCode = %q, want %q", got, code)
	}
}

// blockedServer brings up a server whose first submission parks inside
// the accept hook (holding the middleware lock and its pending slot)
// until block is closed, plus a second client for concurrent requests.
func blockedServer(t *testing.T, maxPending int) (c1, c2 *Client, started, block chan struct{}, firstDone chan error) {
	t.Helper()
	started = make(chan struct{})
	block = make(chan struct{})
	_, c1 = startServerWith(t,
		middleware.WithAdmission(middleware.AdmissionOptions{MaxPending: maxPending}),
		middleware.WithHooks(onAccept(func() {
			select {
			case started <- struct{}{}:
				<-block
			default: // later accepts pass through
			}
		})))
	// The protocol client serializes round trips, so the blocked submit
	// and the shed submit need separate connections.
	var err error
	c2, err = Dial(c1.addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c2.Close() })
	firstDone = make(chan error, 1)
	go func() {
		_, err := c1.Submit(loc("b1", 1, 0))
		firstDone <- err
	}()
	<-started // first submit is inside the hook, holding the lock
	return c1, c2, started, block, firstDone
}

func TestSubmitQueueFullOverloadedCode(t *testing.T) {
	c1, c2, _, block, firstDone := blockedServer(t, 1)
	// The pending cap is checked before the middleware lock, so the shed
	// answer arrives while the first submission still holds the lock.
	_, err := c2.Submit(loc("b2", 2, 0.001))
	wantCode(t, err, CodeOverloaded)

	close(block)
	if err := <-firstDone; err != nil {
		t.Fatalf("blocked submit: %v", err)
	}
	if _, err := c1.Use("b2"); err == nil {
		t.Fatal("shed context b2 was applied")
	}
	rs, _, err := c1.Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if rs.OverloadShed != 1 {
		t.Fatalf("OverloadShed = %d, want 1", rs.OverloadShed)
	}
}

func TestSubmitBudgetDeadlineShed(t *testing.T) {
	c1, c2, _, block, firstDone := blockedServer(t, 64)
	// The budgeted submit parks on the middleware lock; its 1ms deadline
	// (fixed when the server read the request) expires while the first
	// submission is still blocked in the hook.
	shedDone := make(chan error, 1)
	go func() {
		_, err := c2.SubmitBudget(loc("b2", 2, 0.001), time.Millisecond)
		shedDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request be read and parked
	close(block)
	if err := <-firstDone; err != nil {
		t.Fatalf("blocked submit: %v", err)
	}
	wantCode(t, <-shedDone, CodeOverloaded)

	if _, err := c1.Use("b2"); err == nil {
		t.Fatal("shed context b2 was applied")
	}
	rs, _, err := c1.Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if rs.DeadlineShed != 1 {
		t.Fatalf("DeadlineShed = %d, want 1", rs.DeadlineShed)
	}
}

func TestSubmitQuarantinedCode(t *testing.T) {
	tracker := health.NewTracker(health.Config{
		Window: 8, MinSamples: 2, TripRatio: 0.5,
		Cooldown: time.Hour, ProbeCount: 1,
	})
	_, client := startServerWith(t, middleware.WithHealth(tracker))

	if _, err := client.Submit(loc("q1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// A teleport: inconsistent, and drop-bad discards a tracker context —
	// two bad observations in a two-sample window trip the breaker.
	if _, err := client.Submit(loc("q2", 2, 50)); err != nil {
		t.Fatal(err)
	}
	_, err := client.Submit(loc("q3", 3, 50.001))
	wantCode(t, err, CodeQuarantined)

	_, hs, err := client.Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if hs == nil {
		t.Fatal("health snapshot missing from stats")
	}
	if hs.Trips != 1 || hs.Dropped != 1 {
		t.Fatalf("health = %+v, want 1 trip / 1 dropped", hs)
	}
	if len(hs.Sources) != 1 || hs.Sources[0].Source != "tracker" || hs.Sources[0].State != "open" {
		t.Fatalf("sources = %+v, want tracker open", hs.Sources)
	}
}

func TestSubmitCheckTimeoutCode(t *testing.T) {
	ch := constraint.NewChecker()
	ch.MustRegister(&constraint.Constraint{
		Name: "stall",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Pred("sleepy", func([]*ctx.Context) bool {
				time.Sleep(200 * time.Millisecond)
				return true
			}, "a")),
	})
	mw := middleware.New(ch, strategy.NewDropBad(),
		middleware.WithWatchdog(middleware.WatchdogOptions{CheckTimeout: 10 * time.Millisecond}))
	srv, err := Serve("127.0.0.1:0", mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	_, err = client.Submit(loc("w1", 1, 0))
	wantCode(t, err, CodeCheckTimeout)
	if _, err := client.Use("w1"); err == nil {
		t.Fatal("timed-out submission was applied")
	}
}

// TestTypedRejectionsNotRetried pins the anti-retry-storm property: a
// typed rejection is a RemoteError, and RemoteErrors are returned after
// one attempt (resending a shed request would only deepen the overload).
func TestTypedRejectionsNotRetried(t *testing.T) {
	tracker := health.NewTracker(health.Config{
		Window: 8, MinSamples: 2, TripRatio: 0.5,
		Cooldown: time.Hour, ProbeCount: 1,
	})
	_, client := startServerWith(t, middleware.WithHealth(tracker))
	for _, c := range []*ctx.Context{loc("r1", 1, 0), loc("r2", 2, 50)} {
		if _, err := client.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	before, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(loc("r3", 3, 50.001))
	wantCode(t, err, CodeQuarantined)
	after, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one submit request reached the server between the two stats
	// reads (each stats read is itself one request).
	if got := after.Requests - before.Requests; got != 2 {
		t.Fatalf("requests between stats reads = %d, want 2 (1 submit + 1 stats)", got)
	}
}

func TestStatsCarriesResilience(t *testing.T) {
	_, client := startServerWith(t,
		middleware.WithAdmission(middleware.AdmissionOptions{MaxPending: 64}))
	if _, err := client.Submit(loc("s1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	rs, hs, err := client.Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if rs != (middleware.ResilienceStats{}) {
		t.Fatalf("resilience = %+v, want zero (nothing shed)", rs)
	}
	if hs != nil {
		t.Fatalf("health = %+v, want nil without a tracker", hs)
	}
}

func TestErrorCodeOnTransportError(t *testing.T) {
	if got := ErrorCode(errors.New("plain")); got != "" {
		t.Fatalf("ErrorCode(plain) = %q, want empty", got)
	}
}

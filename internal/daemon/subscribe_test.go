package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/testutil/leakcheck"
)

// subjLoc builds a location for an arbitrary subject at logical time
// t0+seq seconds, so tests can drive situation activations from several
// sources without tripping the velocity constraint.
func subjLoc(subject, id string, seq uint64, opts ...ctx.Option) *ctx.Context {
	base := []ctx.Option{ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource(subject)}
	return ctx.NewLocation(subject, t0.Add(time.Duration(seq)*time.Second), ctx.Point{},
		append(base, opts...)...)
}

// collectEvents returns a handler that forwards pushed events to a channel.
func collectEvents() (EventHandler, chan WireEvent) {
	ch := make(chan WireEvent, 32)
	return func(subID string, ev WireEvent) { ch <- ev }, ch
}

func awaitEvent(t *testing.T, ch chan WireEvent, wantType string) WireEvent {
	t.Helper()
	select {
	case ev := <-ch:
		if ev.Type != wantType {
			t.Fatalf("event type = %s, want %s (event %+v)", ev.Type, wantType, ev)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s event within 5s", wantType)
		return WireEvent{}
	}
}

// TestSubscribePushDelivery is the end-to-end acceptance test: a client
// subscribes to a named situation and receives the activation when a
// matching context is submitted and the deactivation when it expires —
// over both wire formats, pushed on the same connection, no polling.
func TestSubscribePushDelivery(t *testing.T) {
	for _, format := range []string{FormatJSON, FormatBinary} {
		t.Run(format, func(t *testing.T) {
			srv := startWireServer(t)
			client, err := DialOptions(srv.Addr().String(), ClientOptions{
				Timeout:             5 * time.Second,
				ReconnectBackoffMin: time.Millisecond,
				ReconnectBackoffMax: 20 * time.Millisecond,
				WireFormat:          format,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			handler, events := collectEvents()
			if err := client.Subscribe("s1", "present", handler); err != nil {
				t.Fatal(err)
			}

			// The activation is pushed with the middleware's logical clock.
			if _, err := client.Submit(subjLoc("peter", "p1", 1, ctx.WithTTL(2*time.Second))); err != nil {
				t.Fatal(err)
			}
			ev := awaitEvent(t, events, "activated")
			if ev.Situation != "present" {
				t.Fatalf("situation = %q, want present", ev.Situation)
			}
			if !ev.At.Equal(t0.Add(time.Second)) {
				t.Fatalf("At = %v, want logical clock %v", ev.At, t0.Add(time.Second))
			}

			// An unrelated submission advances the logical clock past the
			// TTL; the expiry delta deactivates the situation.
			if _, err := client.Submit(subjLoc("anna", "a1", 10)); err != nil {
				t.Fatal(err)
			}
			ev = awaitEvent(t, events, "deactivated")
			if !ev.At.Equal(t0.Add(10 * time.Second)) {
				t.Fatalf("At = %v, want logical clock %v", ev.At, t0.Add(10*time.Second))
			}

			// The delivery counter increments just after the frame is
			// flushed, so poll briefly rather than racing it.
			deadline := time.Now().Add(time.Second)
			for srv.Stats().PushesDelivered != 2 {
				if time.Now().After(deadline) {
					t.Fatalf("PushesDelivered = %d, want 2", srv.Stats().PushesDelivered)
				}
				time.Sleep(time.Millisecond)
			}
			if err := client.Unsubscribe("s1"); err != nil {
				t.Fatal(err)
			}
			if got := srv.Stats().Subscribers; got != 0 {
				t.Fatalf("Subscribers after unsubscribe = %d, want 0", got)
			}
		})
	}
}

// TestSubscribeInlineFormula pins inline formula subscriptions: compiled
// server-side, evaluated only on deltas of the kinds the formula
// mentions, labeled with the subscription ID.
func TestSubscribeInlineFormula(t *testing.T) {
	srv := startWireServer(t)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	handler, events := collectEvents()
	if err := client.SubscribeFormula("anna-here",
		`exists a: location . subjectIs(a, "anna")`, handler); err != nil {
		t.Fatal(err)
	}
	// A non-matching submission re-evaluates but must not transition.
	if _, err := client.Submit(subjLoc("peter", "p1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(subjLoc("anna", "a1", 2)); err != nil {
		t.Fatal(err)
	}
	ev := awaitEvent(t, events, "activated")
	if ev.Situation != "anna-here" {
		t.Fatalf("situation label = %q, want the subscription ID", ev.Situation)
	}
	select {
	case extra := <-events:
		t.Fatalf("unexpected extra event %+v", extra)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSubscribeServerValidation walks the subscribe/unsubscribe error
// paths over a raw connection: malformed requests, unknown situations,
// duplicate IDs (typed), and the hello-renegotiation guard.
func TestSubscribeServerValidation(t *testing.T) {
	srv := startWireServer(t)
	rc := dialRaw(t, srv, FormatJSON)

	check := func(req Request, wantOK bool, wantCode Code) Response {
		t.Helper()
		resp := rc.decodeExchange(req)
		if resp.OK != wantOK || resp.Code != wantCode {
			t.Fatalf("%s %+v: got ok=%v code=%q (%s), want ok=%v code=%q",
				req.Op, req, resp.OK, resp.Code, resp.Error, wantOK, wantCode)
		}
		return resp
	}

	check(Request{Op: OpSubscribe, Situation: "present"}, false, CodeBadRequest)                              // missing subId
	check(Request{Op: OpSubscribe, SubID: "x"}, false, CodeBadRequest)                                        // neither situation nor formula
	check(Request{Op: OpSubscribe, SubID: "x", Situation: "present", Formula: "true"}, false, CodeBadRequest) // both
	check(Request{Op: OpSubscribe, SubID: "x", Situation: "ghost"}, false, CodeApp)                           // unknown situation
	check(Request{Op: OpSubscribe, SubID: "x", Formula: "exists a: location ."}, false, CodeBadRequest)       // parse error
	check(Request{Op: OpUnsubscribe}, false, CodeBadRequest)                                                  // missing subId
	check(Request{Op: OpUnsubscribe, SubID: "x"}, false, CodeApp)                                             // never subscribed

	ack := check(Request{Op: OpSubscribe, SubID: "s1", Situation: "present"}, true, "")
	if ack.SubID != "s1" {
		t.Fatalf("subscribe ack SubID = %q, want s1", ack.SubID)
	}
	check(Request{Op: OpSubscribe, SubID: "s1", Situation: "present"}, false, CodeDupSubscription)
	// Format renegotiation is refused while subscriptions are active: a
	// push racing the switch could otherwise desync the framing.
	check(Request{Op: OpHello, Format: FormatBinary}, false, CodeApp)
	check(Request{Op: OpUnsubscribe, SubID: "s1"}, true, "")
	check(Request{Op: OpUnsubscribe, SubID: "s1"}, false, CodeApp) // already removed
	// With no subscriptions left the connection may renegotiate again.
	check(Request{Op: OpHello, Format: FormatJSON}, true, "")
}

// decodeExchange sends req and decodes the (non-push) response.
func (rc *rawConn) decodeExchange(req Request) Response {
	rc.t.Helper()
	return decodeResponse(rc.t, rc.exchange(req))
}

// TestClientDuplicateSubscribeLocal pins the client-side duplicate guard:
// the second Subscribe with the same ID fails with the typed code without
// a round trip.
func TestClientDuplicateSubscribeLocal(t *testing.T) {
	srv := startWireServer(t)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	handler, _ := collectEvents()
	if err := client.Subscribe("dup", "present", handler); err != nil {
		t.Fatal(err)
	}
	err = client.Subscribe("dup", "present", handler)
	if ErrorCode(err) != CodeDupSubscription {
		t.Fatalf("duplicate subscribe: err = %v, want %s", err, CodeDupSubscription)
	}
	if got := srv.Stats().Subscribers; got != 1 {
		t.Fatalf("Subscribers = %d, want 1", got)
	}
}

// TestUnsubscribeRacesInFlightPush races Unsubscribe against a stream of
// transitions: no deadlock or data race, events stop reaching the handler
// once the subscription is gone, and the server forgets the entry.
func TestUnsubscribeRacesInFlightPush(t *testing.T) {
	srv := startWireServer(t)
	subClient, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer subClient.Close()
	pubClient, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pubClient.Close()

	var delivered atomic.Int64
	if err := subClient.SubscribeFormula("flip",
		`exists a: location . subjectIs(a, "flip")`,
		func(string, WireEvent) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var lastSeq atomic.Uint64
	toggle := func(seq uint64) {
		// One activation (a short-TTL flip context) and one deactivation
		// (an unrelated submission advancing the clock past the TTL).
		lastSeq.Store(seq)
		_, _ = pubClient.Submit(subjLoc("flip", fmt.Sprintf("f%d", seq), seq, ctx.WithTTL(time.Second)))
		_, _ = pubClient.Submit(subjLoc("walker", fmt.Sprintf("w%d", seq+2), seq+2))
	}
	go func() {
		defer close(done)
		seq := uint64(10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			toggle(seq)
			seq += 4
		}
	}()

	time.Sleep(50 * time.Millisecond) // let pushes flow mid-stream
	if err := subClient.Unsubscribe("flip"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	// Late events queued before the unsubscribe ack are legal; once the
	// stream settles, further transitions must not reach the handler.
	settled := delivered.Load()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		if cur := delivered.Load(); cur != settled {
			settled = cur
			continue
		}
		break
	}
	toggle(lastSeq.Load() + 100)
	time.Sleep(200 * time.Millisecond)
	if got := delivered.Load(); got != settled {
		t.Fatalf("handler saw %d events after unsubscribe settled at %d", got, settled)
	}
	if got := srv.Stats().Subscribers; got != 0 {
		t.Fatalf("Subscribers = %d, want 0", got)
	}
}

// TestShutdownWithSubscribers pins the lifecycle edge case: Shutdown with
// live subscribers attached must flush or cancel cleanly and return
// promptly, with every goroutine joined.
func TestShutdownWithSubscribers(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	srv := startWireServer(t)
	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		ReconnectBackoffMin: time.Millisecond,
		ReconnectBackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	handler, events := collectEvents()
	if err := client.Subscribe("s1", "present", handler); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(subjLoc("peter", "p1", 1)); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, "activated")

	start := time.Now()
	srv.Shutdown()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown with subscribers took %v", elapsed)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after Shutdown returned")
	}
}

// TestStalledSubscriberShed is the slow-consumer acceptance test: a
// subscriber whose writes stall overflows its queue and is shed with the
// typed code — counted, deregistered, connection closed — while a healthy
// subscriber on the same server keeps receiving events.
func TestStalledSubscriberShed(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithConnWrapper(
			func(i int, c net.Conn) net.Conn {
				if i == 1 {
					// The second connection's writes stall long enough for a
					// burst of events to overflow its queue.
					return faultconn.Wrap(c, faultconn.WithWriteStall(150*time.Millisecond))
				}
				return c
			}))
	}, WithSubscriptions(SubscriptionOptions{QueueLen: 1}), WithDrainTimeout(time.Second))

	healthy, err := Dial(srv.Addr().String(), 5*time.Second) // conn 0: clean
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	handler, events := collectEvents()
	const peterFormula = `exists a: location . subjectIs(a, "peter")`
	if err := healthy.SubscribeFormula("healthy", peterFormula, handler); err != nil {
		t.Fatal(err)
	}

	// conn 1: stalled. Three subscriptions transition together on one
	// delta, so a single submission enqueues a burst the cap-1 queue
	// cannot absorb while the pusher is stuck in its stalled write.
	stalled := dialRaw(t, srv, FormatJSON)
	for i := 0; i < 3; i++ {
		resp := stalled.decodeExchange(Request{Op: OpSubscribe,
			SubID: fmt.Sprintf("slow%d", i), Formula: peterFormula})
		if !resp.OK {
			t.Fatalf("stalled subscribe %d: %+v", i, resp)
		}
	}

	if _, err := healthy.Submit(subjLoc("peter", "p1", 1, ctx.WithTTL(2*time.Second))); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, "activated")

	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().SubscribersShed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber not shed: stats %+v", srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats := srv.Stats()
	if stats.SubscribersShed != 1 || stats.PushesDropped < 1 {
		t.Fatalf("shed counters = %+v", stats)
	}
	// All three of the stalled connection's entries are gone; only the
	// healthy subscription remains registered.
	if stats.Subscribers != 1 {
		t.Fatalf("Subscribers = %d, want 1 (healthy only)", stats.Subscribers)
	}

	// The healthy subscriber keeps receiving: expire the peter context.
	if _, err := healthy.Submit(subjLoc("anna", "a1", 10)); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, "deactivated")

	// The stalled connection ends up closed (reads drain whatever was
	// written before the shed, then fail).
	_ = stalled.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := stalled.conn.ReadFrame(); err != nil {
			break
		}
	}
}

// TestSubscriberLaggedNoticeDelivered pins the best-effort typed notice:
// when the shed finds the pusher at a clean frame boundary, the client
// reads a final push frame carrying CodeSubscriberLagged before the close.
// The overflow is injected directly so the pusher is deterministically
// idle when the shed happens.
func TestSubscriberLaggedNoticeDelivered(t *testing.T) {
	srv := startWireServer(t)
	rc := dialRaw(t, srv, FormatJSON)
	if resp := rc.decodeExchange(Request{Op: OpSubscribe, SubID: "s1", Situation: "present"}); !resp.OK {
		t.Fatalf("subscribe: %+v", resp)
	}

	h := srv.hub
	h.mu.Lock()
	var sub *subscriber
	for _, entries := range h.byKind {
		for e := range entries {
			sub = e.sub
		}
	}
	h.mu.Unlock()
	if sub == nil {
		t.Fatal("no registered entry found in hub index")
	}

	h.mu.Lock()
	h.shedLocked(sub)
	h.mu.Unlock()

	_ = rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := rc.conn.ReadFrame()
	if err != nil {
		t.Fatalf("read lagged notice: %v", err)
	}
	resp := decodeResponse(t, body)
	if !resp.Push || resp.OK || resp.Code != CodeSubscriberLagged {
		t.Fatalf("notice = %+v, want push frame with %s", resp, CodeSubscriberLagged)
	}
	if _, err := rc.conn.ReadFrame(); err == nil {
		t.Fatal("connection still open after shed")
	}
	if got := srv.Stats().SubscribersShed; got != 1 {
		t.Fatalf("SubscribersShed = %d, want 1", got)
	}
}

// TestResubscribeAfterConnCut pins automatic resubscription: the server
// cuts the subscriber's connection mid-push; the client's pump reconnects
// in the background, replays the subscription, and later transitions
// arrive on the new connection. The lost subscription is never reported
// as terminally cancelled.
func TestResubscribeAfterConnCut(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithConnWrapper(
			func(i int, c net.Conn) net.Conn {
				if i == 0 {
					// Budget passes the subscribe ack (~23 bytes + newline)
					// and then truncates the first pushed event frame.
					return faultconn.Wrap(c, faultconn.CutAfterWrites(60))
				}
				return c
			}))
	}, WithDrainTimeout(time.Second))

	var lost atomic.Int64
	subClient, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		MaxAttempts:         5,
		ReconnectBackoffMin: time.Millisecond,
		ReconnectBackoffMax: 20 * time.Millisecond,
		OnSubscriptionLost:  func(string, error) { lost.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer subClient.Close()
	handler, events := collectEvents()
	if err := subClient.SubscribeFormula("peter-here",
		`exists a: location . subjectIs(a, "peter")`, handler); err != nil {
		t.Fatal(err)
	}

	pubClient, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pubClient.Close()

	// The activation push dies mid-frame on the cut connection; the event
	// is lost, but the subscription survives via background resubscription
	// (where the baseline re-evaluates as already-active, so no stale
	// activation is replayed).
	if _, err := pubClient.Submit(subjLoc("peter", "p1", 1, ctx.WithTTL(2*time.Second))); err != nil {
		t.Fatal(err)
	}
	// The deactivation must arrive on the replacement connection — the
	// third one accepted, after the subscriber's first and the publisher's.
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); st.Accepted < 3 || st.Subscribers == 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("subscription never re-registered after cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := pubClient.Submit(subjLoc("anna", "a1", 10)); err != nil {
		t.Fatal(err)
	}
	ev := awaitEvent(t, events, "deactivated")
	if ev.Situation != "peter-here" {
		t.Fatalf("situation = %q", ev.Situation)
	}
	if got := lost.Load(); got != 0 {
		t.Fatalf("OnSubscriptionLost fired %d times for a transient cut", got)
	}
}

// TestSubscriptionCap pins the server-wide subscription cap: an
// OpSubscribe past -max-subscribers draws CodeBusy without disturbing the
// registered subscriptions.
func TestSubscriptionCap(t *testing.T) {
	engineSrv := startWireServerWith(t, WithSubscriptions(SubscriptionOptions{MaxSubscribers: 2}))
	rc := dialRaw(t, engineSrv, FormatJSON)
	for i := 0; i < 2; i++ {
		if resp := rc.decodeExchange(Request{Op: OpSubscribe,
			SubID: fmt.Sprintf("s%d", i), Situation: "present"}); !resp.OK {
			t.Fatalf("subscribe %d: %+v", i, resp)
		}
	}
	resp := rc.decodeExchange(Request{Op: OpSubscribe, SubID: "s2", Situation: "present"})
	if resp.OK || resp.Code != CodeBusy {
		t.Fatalf("over-cap subscribe = %+v, want %s", resp, CodeBusy)
	}
	if got := engineSrv.Stats().Subscribers; got != 2 {
		t.Fatalf("Subscribers = %d, want 2", got)
	}
}

// TestSubscriptionTelemetry checks the new instruments: the subscriber
// gauge, the push latency histogram, and the delivered counter all
// surface in the registry snapshot.
func TestSubscriptionTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := startWireServerWith(t, WithTelemetry(reg))
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	handler, events := collectEvents()
	if err := client.Subscribe("s1", "present", handler); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(subjLoc("peter", "p1", 1)); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, "activated")

	// The delivery instruments record just after the frame is flushed, so
	// poll the snapshot briefly rather than racing the pusher goroutine.
	snap := reg.Snapshot()
	deadline := time.Now().Add(time.Second)
	for snap.Counters["ctxres_pushes_delivered_total"] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		snap = reg.Snapshot()
	}
	if got := snap.Gauges["ctxres_subscribers"]; got != 1 {
		t.Fatalf("ctxres_subscribers = %v, want 1", got)
	}
	if got := snap.Counters["ctxres_pushes_delivered_total"]; got != 1 {
		t.Fatalf("ctxres_pushes_delivered_total = %v, want 1", got)
	}
	if got := snap.Histograms["ctxres_push_seconds"]; got.Count != 1 {
		t.Fatalf("ctxres_push_seconds count = %v, want 1", got.Count)
	}
	if got := snap.Counters["ctxres_subscribers_shed_total"]; got != 0 {
		t.Fatalf("ctxres_subscribers_shed_total = %v, want 0", got)
	}
}

// startWireServerWith is startWireServer with extra server options.
func startWireServerWith(t *testing.T, opts ...Option) *Server {
	t.Helper()
	engine := situation.NewEngine()
	engine.MustRegister(&situation.Situation{
		Name: "present",
		Formula: constraint.Exists("a", ctx.KindLocation,
			constraint.SubjectIs("a", "peter")),
	})
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(),
		middleware.WithSituations(engine))
	srv, err := Serve("127.0.0.1:0", mw, engine, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// startSlowAcceptServer runs a server whose middleware parks every
// submission inside its accept hook for holdFor, simulating a slow
// in-flight request for the drain tests.
func startSlowAcceptServer(t *testing.T, holdFor time.Duration, opts ...Option) *Server {
	t.Helper()
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(),
		middleware.WithHooks(onAccept(func() { time.Sleep(holdFor) })))
	srv, err := Serve("127.0.0.1:0", mw, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// onAccept returns a middleware hook that calls f once for each operation
// that accepted a submission.
func onAccept(f func()) middleware.Hook {
	return func(evs []middleware.Event) {
		for _, e := range evs {
			if e.Type == middleware.EventAccept {
				f()
				return
			}
		}
	}
}

func decodeResponse(t *testing.T, body []byte) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response %q: %v", body, err)
	}
	return resp
}

// TestDrainWakesOnRequestCompletion pins the event-driven drain: Shutdown
// during a slow in-flight request returns as soon as that request
// finishes, not after polling out the (much longer) drain timeout.
func TestDrainWakesOnRequestCompletion(t *testing.T) {
	srv := startSlowAcceptServer(t, 400*time.Millisecond, WithDrainTimeout(30*time.Second))
	client, err := Dial(srv.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	subErr := make(chan error, 1)
	go func() {
		_, err := client.Submit(subjLoc("peter", "p1", 1))
		subErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the slow submit get in flight

	start := time.Now()
	srv.Shutdown()
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("drain took %v; event-driven drain must return when the request finishes", elapsed)
	}
	if err := <-subErr; err != nil {
		t.Fatalf("in-flight submit must finish during drain: %v", err)
	}
}

// TestRejectBusyDeadlineDerivedFromIdleTimeout pins the rejectBusy write
// deadline: derived from the configured idle timeout (capped at one
// second), not hardcoded. A pipe peer that never reads blocks the write
// until exactly that deadline.
func TestRejectBusyDeadlineDerivedFromIdleTimeout(t *testing.T) {
	cases := []struct {
		name    string
		idle    time.Duration
		maxWait time.Duration
	}{
		{"short idle timeout", 50 * time.Millisecond, 500 * time.Millisecond},
		{"long idle timeout capped", time.Hour, 5 * time.Second},
		{"disabled idle timeout capped", 0, 5 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := &Loop{opt: options{idleTimeout: tc.idle, maxConns: 1}}
			c1, c2 := net.Pipe()
			defer c2.Close()
			start := time.Now()
			l.rejectBusy(&Peer{Conn: NewConn(c1), loop: l})
			if elapsed := time.Since(start); elapsed > tc.maxWait {
				t.Fatalf("rejectBusy blocked %v with idleTimeout %v", elapsed, tc.idle)
			}
			// The connection is closed either way.
			_ = c2.SetReadDeadline(time.Now().Add(time.Second))
			buf := make([]byte, 1)
			if _, err := c2.Read(buf); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("peer read after rejectBusy: %v, want closed", err)
			}
		})
	}
}

// TestRejectBusyStalledClientDoesNotWedgeAccept runs the over-cap path
// against a write-stalled connection: the busy notice write is abandoned
// at the derived deadline (the idle timeout here exceeds the one-second
// cap, so the cap applies), the connection closes without the payload,
// and the accept loop keeps rejecting later over-cap connections
// normally.
func TestRejectBusyStalledClientDoesNotWedgeAccept(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithConnWrapper(
			func(i int, c net.Conn) net.Conn {
				if i == 1 {
					// The first over-cap connection's writes stall past the
					// capped deadline.
					return faultconn.Wrap(c, faultconn.WithWriteStall(1500*time.Millisecond))
				}
				return c
			}))
	}, WithMaxConns(1), WithIdleTimeout(5*time.Second), WithDrainTimeout(time.Second))

	holder, err := Dial(srv.Addr().String(), 5*time.Second) // occupies the only slot
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	// Over-cap, stalled: the busy write misses its deadline; the client
	// sees the connection close without a payload.
	stalled, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	_ = stalled.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 256)
	if n, err := stalled.Read(buf); err == nil || n > 0 {
		t.Fatalf("stalled over-cap conn got %d bytes (err %v), want close without payload", n, err)
	}

	// Over-cap, clean: the accept loop recovered and still answers with
	// the typed busy response.
	clean, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	_ = clean.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := clean.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("clean over-cap conn read: %d bytes, %v", n, err)
	}
	resp := decodeResponse(t, buf[:n])
	if resp.OK || resp.Code != CodeBusy {
		t.Fatalf("over-cap response = %+v, want %s", resp, CodeBusy)
	}
	if got := srv.Stats().RejectedFull; got != 2 {
		t.Fatalf("RejectedFull = %d, want 2", got)
	}
}

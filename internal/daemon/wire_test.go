package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/testutil/leakcheck"
)

// startWireServer brings up a server identical to startServer's but
// without a pre-dialed client, so two instances stay in byte-for-byte
// identical states under identical request sequences.
func startWireServer(t *testing.T) *Server {
	t.Helper()
	engine := situation.NewEngine()
	engine.MustRegister(&situation.Situation{
		Name: "present",
		Formula: constraint.Exists("a", ctx.KindLocation,
			constraint.SubjectIs("a", "peter")),
	})
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(),
		middleware.WithSituations(engine))
	srv, err := Serve("127.0.0.1:0", mw, engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// rawConn speaks the protocol directly, returning raw response payload
// bytes so tests can compare formats at the byte level.
type rawConn struct {
	t    *testing.T
	conn *Conn
}

func dialRaw(t *testing.T, srv *Server, format string) *rawConn {
	t.Helper()
	return dialRawAddr(t, srv.Addr().String(), format)
}

// dialRawAddr is dialRaw against any front door speaking the protocol.
func dialRawAddr(t *testing.T, addr, format string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := SetConnDeadline(conn, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, conn: NewConn(conn)}
	// Both formats negotiate explicitly (the handshake itself travels as
	// line JSON; only after a binary ack do both sides speak frames), so
	// differential runs see identical request sequences.
	ack := rc.exchange(Request{Op: OpHello, Format: format})
	var resp Response
	if err := json.Unmarshal(ack, &resp); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	if !resp.OK || resp.Format != format {
		t.Fatalf("hello ack = %s", ack)
	}
	rc.conn.SetFormat(format)
	return rc
}

// send writes req in the connection's negotiated framing.
func (rc *rawConn) send(req Request) {
	rc.t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		rc.t.Fatal(err)
	}
	if err := rc.conn.WriteFrame(payload, 0); err != nil {
		rc.t.Fatalf("write frame: %v", err)
	}
}

// readFrame returns a copy of the next raw payload (the JSON document,
// with any framing stripped) — a response or a pushed event frame.
func (rc *rawConn) readFrame() []byte {
	rc.t.Helper()
	body, err := rc.conn.ReadFrame()
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return append([]byte(nil), body...)
}

// exchange sends req and returns the raw response payload.
func (rc *rawConn) exchange(req Request) []byte {
	rc.t.Helper()
	rc.send(req)
	return rc.readFrame()
}

// exchangeRaw sends an arbitrary payload as one frame and returns the raw
// response payload.
func (rc *rawConn) exchangeRaw(payload []byte) []byte {
	rc.t.Helper()
	if err := rc.conn.WriteFrame(payload, 0); err != nil {
		rc.t.Fatalf("write frame: %v", err)
	}
	return rc.readFrame()
}

// exchangeWithPush sends req and reads the two frames it provokes: the
// response and exactly one pushed event. The serving goroutine and the
// pusher goroutine write concurrently (the connWriter only guarantees
// whole frames), so the pair may arrive in either order; frames are
// classified by the Push tag.
func (rc *rawConn) exchangeWithPush(req Request) (resp, push []byte) {
	rc.t.Helper()
	rc.send(req)
	first, second := rc.readFrame(), rc.readFrame()
	var a, b Response
	if err := json.Unmarshal(first, &a); err != nil {
		rc.t.Fatalf("decode frame %q: %v", first, err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		rc.t.Fatalf("decode frame %q: %v", second, err)
	}
	if a.Push == b.Push {
		rc.t.Fatalf("want one response and one push, got %q and %q", first, second)
	}
	if a.Push {
		return second, first
	}
	return first, second
}

// TestWireFormatsDifferential drives two identically configured servers
// through the same request sequence — every op, plus the error paths —
// one over line JSON and one over binary frames, and requires every
// response payload to be byte-identical and the servers' middleware,
// pool, and resilience counters to finish equal. The binary framing must
// be a pure transport change, invisible at the payload level.
func TestWireFormatsDifferential(t *testing.T) {
	jsonSrv := startWireServer(t)
	binSrv := startWireServer(t)
	jsonConn := dialRaw(t, jsonSrv, FormatJSON)
	binConn := dialRaw(t, binSrv, FormatBinary)

	batch := []*ctx.Context{loc("w3", 3, 100.5), loc("w4", 4, 101), loc("w3", 3, 100.5)}
	reqs := []Request{
		{Op: OpPing},
		{Op: OpSubmit, Context: loc("w1", 1, 0)},
		{Op: OpSubmit, Context: loc("w1", 1, 0)},   // duplicate → app error
		{Op: OpSubmit, Context: loc("w2", 2, 100)}, // velocity violation
		{Op: OpBatchSubmit, Contexts: batch},       // mixed per-item outcomes
		{Op: OpBatchSubmit},                        // missing contexts → app error
		{Op: OpUse, ID: "w1"},
		{Op: OpUse, ID: "nope"}, // not found → app error
		{Op: OpUseLatest, Kind: ctx.KindLocation, Subject: "peter"},
		{Op: OpUseLatest}, // missing kind → app error
		{Op: OpSituations},
		{Op: Op("bogus")}, // unknown op → app error
		// Trace fields on a server with no tracing configured must be
		// inert: same bytes across formats, and no trace echo — an old
		// peer's responses are unchanged by a tracing-aware client.
		{Op: OpSubmit, Context: loc("w5", 5, 101.5),
			TraceID: strings.Repeat("77", 16), SpanID: "7777666655554444"},
		{Op: OpUse, ID: "w5", TraceID: strings.Repeat("77", 16)},
		{Op: OpProvenance, Limit: 3}, // not enabled → typed app error
	}
	for i, req := range reqs {
		fromJSON := jsonConn.exchange(req)
		fromBin := binConn.exchange(req)
		if !bytes.Equal(fromJSON, fromBin) {
			t.Errorf("step %d (%s): payloads differ\n json:   %s\n binary: %s",
				i, req.Op, fromJSON, fromBin)
		}
		if req.TraceID != "" && bytes.Contains(fromJSON, []byte("traceId")) {
			t.Errorf("step %d (%s): untraced server echoed trace fields: %s",
				i, req.Op, fromJSON)
		}
	}

	// Third column, via a shard router: where the answer does not depend
	// on routing, the gateway's bytes must be a direct daemon's, in both
	// formats — both are answered by the one serving loop.
	routerAddr, _ := RouterFront(t, startWireServer(t).Addr().String())
	for format, direct := range map[string]*rawConn{FormatJSON: jsonConn, FormatBinary: binConn} {
		routed := dialRawAddr(t, routerAddr, format)
		for _, payload := range []string{
			`{"op":"ping"}`,
			`{"op":"hello","format":"` + format + `"}`, // the format ack
			`{"op":"hello","format":"carrier-pigeon"}`,
			`{"op":"hello","role":"stowaway"}`,
			`{"op":"bogus"}`,
			`this is not json`,
		} {
			fromDirect := direct.exchangeRaw([]byte(payload))
			fromRouter := routed.exchangeRaw([]byte(payload))
			if !bytes.Equal(fromDirect, fromRouter) {
				t.Errorf("%s via router (%s): payloads differ\n direct: %s\n router: %s",
					payload, format, fromDirect, fromRouter)
			}
		}
		// Replication is the one op the gateway refuses in its own words.
		const refusal = `{"ok":false,"error":"the router does not serve replication; connect to a shard daemon","code":"bad-request"}`
		if got := routed.exchange(Request{Op: OpReplicate}); string(got) != refusal {
			t.Errorf("replicate via router (%s) = %s, want %s", format, got, refusal)
		}
	}

	// Subscription surface: acks and every error path must stay
	// byte-identical too.
	subReqs := []Request{
		{Op: OpSubscribe, SubID: "sp", Situation: "present"},
		{Op: OpSubscribe, SubID: "sp", Situation: "present"},            // duplicate → typed error
		{Op: OpSubscribe, Situation: "present"},                         // missing subId
		{Op: OpSubscribe, SubID: "sx", Situation: "ghost"},              // unknown situation
		{Op: OpSubscribe, SubID: "sy", Formula: "exists a: location ."}, // parse error
		{Op: OpSubscribe, SubID: "anna-sub",
			Formula: `exists a: location . subjectIs(a, "anna")`},
	}
	for i, req := range subReqs {
		fromJSON := jsonConn.exchange(req)
		fromBin := binConn.exchange(req)
		if !bytes.Equal(fromJSON, fromBin) {
			t.Errorf("subscribe step %d: payloads differ\n json:   %s\n binary: %s",
				i, fromJSON, fromBin)
		}
	}

	// Pushed event frames carry the logical clock, never wall time, so the
	// activation a submission provokes is byte-identical across formats —
	// and so is the deactivation when the context's TTL expires.
	pushSteps := []struct {
		label string
		req   Request
	}{
		{"activation", Request{Op: OpSubmit, Context: ctx.NewLocation("anna", t0.Add(20*time.Second),
			ctx.Point{}, ctx.WithID("a1"), ctx.WithSeq(20), ctx.WithSource("anna"),
			ctx.WithTTL(5*time.Second))}},
		{"expiry deactivation", Request{Op: OpSubmit, Context: ctx.NewLocation("mover", t0.Add(30*time.Second),
			ctx.Point{}, ctx.WithID("mv1"), ctx.WithSeq(30), ctx.WithSource("mover"))}},
	}
	for _, step := range pushSteps {
		jsonResp, jsonPush := jsonConn.exchangeWithPush(step.req)
		binResp, binPush := binConn.exchangeWithPush(step.req)
		if !bytes.Equal(jsonResp, binResp) {
			t.Errorf("%s: responses differ\n json:   %s\n binary: %s", step.label, jsonResp, binResp)
		}
		if !bytes.Equal(jsonPush, binPush) {
			t.Errorf("%s: push frames differ\n json:   %s\n binary: %s", step.label, jsonPush, binPush)
		}
	}

	for i, req := range []Request{
		{Op: OpUnsubscribe, SubID: "anna-sub"},
		{Op: OpUnsubscribe, SubID: "anna-sub"}, // already removed → error
		{Op: OpUnsubscribe, SubID: "sp"},
	} {
		fromJSON := jsonConn.exchange(req)
		fromBin := binConn.exchange(req)
		if !bytes.Equal(fromJSON, fromBin) {
			t.Errorf("unsubscribe step %d: payloads differ\n json:   %s\n binary: %s",
				i, fromJSON, fromBin)
		}
	}
	// The delivery counter increments just after each push frame is
	// flushed; both servers must converge on the same count.
	for _, srv := range []*Server{jsonSrv, binSrv} {
		deadline := time.Now().Add(time.Second)
		for srv.Stats().PushesDelivered != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("PushesDelivered = %d, want 2", srv.Stats().PushesDelivered)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Stats responses carry wall-clock fields (uptime), so compare the
	// deterministic counter blocks instead of raw bytes.
	var jsonStats, binStats Response
	if err := json.Unmarshal(jsonConn.exchange(Request{Op: OpStats}), &jsonStats); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(binConn.exchange(Request{Op: OpStats}), &binStats); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jsonStats.Middleware, binStats.Middleware) {
		t.Errorf("middleware stats diverge: json %+v, binary %+v",
			jsonStats.Middleware, binStats.Middleware)
	}
	if !reflect.DeepEqual(jsonStats.Pool, binStats.Pool) {
		t.Errorf("pool stats diverge: json %+v, binary %+v",
			jsonStats.Pool, binStats.Pool)
	}
	if !reflect.DeepEqual(jsonStats.Resilience, binStats.Resilience) {
		t.Errorf("resilience stats diverge: json %+v, binary %+v",
			jsonStats.Resilience, binStats.Resilience)
	}
	if jsonStats.Daemon.Requests != binStats.Daemon.Requests {
		t.Errorf("request counts diverge: json %d, binary %d",
			jsonStats.Daemon.Requests, binStats.Daemon.Requests)
	}
}

// TestHelloNegotiation pins the handshake contract: json is acknowledged
// and stays line-framed, an unknown format is refused without breaking
// the connection, and a binary ack flips the framing for everything that
// follows.
func TestHelloNegotiation(t *testing.T) {
	srv := startWireServer(t)
	rc := dialRaw(t, srv, FormatJSON)

	var resp Response
	if err := json.Unmarshal(rc.exchange(Request{Op: OpHello, Format: "carrier-pigeon"}), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unknown format accepted")
	}
	if err := json.Unmarshal(rc.exchange(Request{Op: OpHello}), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Format != FormatJSON {
		t.Fatalf("default hello = %+v, want json ack", resp)
	}
	// Still line-framed after both hellos.
	if err := json.Unmarshal(rc.exchange(Request{Op: OpPing}), &resp); err != nil || !resp.OK {
		t.Fatalf("ping after hello: %+v, %v", resp, err)
	}
	// Now switch and keep talking.
	if err := json.Unmarshal(rc.exchange(Request{Op: OpHello, Format: FormatBinary}), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Format != FormatBinary {
		t.Fatalf("binary hello = %+v", resp)
	}
	rc.conn.SetFormat(FormatBinary)
	if err := json.Unmarshal(rc.exchange(Request{Op: OpPing}), &resp); err != nil || !resp.OK {
		t.Fatalf("binary ping: %+v, %v", resp, err)
	}
}

// TestBinaryClientOps runs the full client surface over the binary
// format against a live server.
func TestBinaryClientOps(t *testing.T) {
	srv := startWireServer(t)
	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:    5 * time.Second,
		WireFormat: FormatBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(loc("b1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	results, err := client.SubmitBatch([]*ctx.Context{
		loc("b2", 2, 0.5), loc("b3", 3, 1), loc("b2", 2, 0.5),
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if !results[0].OK || !results[1].OK {
		t.Fatalf("fresh submissions failed: %+v", results)
	}
	if results[2].OK || !strings.Contains(results[2].Error, "already in pool") {
		t.Fatalf("duplicate item = %+v, want pool rejection", results[2])
	}
	got, err := client.UseLatest(ctx.KindLocation, "peter")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "b3" {
		t.Fatalf("UseLatest = %s, want b3", got.ID)
	}
	_, poolStats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if poolStats.Added != 3 {
		t.Fatalf("pool added = %d, want 3", poolStats.Added)
	}
	active, err := client.Situations()
	if err != nil {
		t.Fatal(err)
	}
	if !active["present"] {
		t.Fatalf("situations = %v, want present active", active)
	}
}

// TestBatchSubmitOverLimit pins the request-size guard.
func TestBatchSubmitOverLimit(t *testing.T) {
	srv := startWireServer(t)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	over := make([]*ctx.Context, MaxBatchContexts+1)
	for i := range over {
		over[i] = loc(fmt.Sprintf("o%d", i), uint64(i+1), 0)
	}
	_, err = client.SubmitBatch(over, 0)
	if ErrorCode(err) != CodeBadRequest {
		t.Fatalf("over-limit batch: err = %v, want %s", err, CodeBadRequest)
	}
}

// TestBinaryMidBatchCutDoesNotDesync cuts the server's response stream in
// the middle of a batch-submit frame. The client must drop the broken
// connection, redial, renegotiate the format, resend — and silently
// re-register its standing subscription — never read a later response
// against the truncated frame's remainder, and never double-apply the
// batch.
func TestBinaryMidBatchCutDoesNotDesync(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithConnWrapper(
			func(i int, c net.Conn) net.Conn {
				if i == 0 {
					// Enough budget for the hello ack (30 bytes) and the
					// subscribe ack frame (32), then the batch response frame
					// is truncated partway through.
					return faultconn.Wrap(c, faultconn.CutAfterWrites(90))
				}
				return c
			}))
	}, WithDrainTimeout(time.Second))

	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		MaxAttempts:         4,
		ReconnectBackoffMin: time.Millisecond,
		WireFormat:          FormatBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A standing subscription registered before the cut: its formula can't
	// fire during the batch (no anna context exists), and it must ride the
	// reconnect transparently.
	events := make(chan WireEvent, 4)
	if err := client.SubscribeFormula("cf", `exists a: location . subjectIs(a, "anna")`,
		func(_ string, ev WireEvent) { events <- ev }); err != nil {
		t.Fatal(err)
	}

	batch := []*ctx.Context{loc("m1", 1, 0), loc("m2", 2, 0.5), loc("m3", 3, 1)}
	results, err := client.SubmitBatch(batch, 0)
	if err != nil {
		t.Fatalf("batch through cut connection: %v", err)
	}
	for i, r := range results {
		// The first attempt's submissions may have landed before the cut;
		// the resend then sees per-item duplicate rejections — the signal
		// the originals were applied, not a desync.
		if !r.OK && !strings.Contains(r.Error, "already in pool") {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
	// Framing intact: targeted requests get their own answers back.
	got, err := client.Use("m2")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "m2" {
		t.Fatalf("Use = %s, framing desynced", got.ID)
	}
	_, poolStats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if poolStats.Added != len(batch) {
		t.Fatalf("pool added = %d, want %d (retry must not double-apply)",
			poolStats.Added, len(batch))
	}
	// The subscription survived the cut via automatic resubscription: a
	// matching submission now pushes its activation over the replacement
	// connection, in binary framing.
	if _, err := client.Submit(ctx.NewLocation("anna", t0.Add(10*time.Second), ctx.Point{},
		ctx.WithID("a9"), ctx.WithSeq(10), ctx.WithSource("anna"))); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Situation != "cf" || ev.Type != "activated" {
			t.Fatalf("pushed event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no activation push after reconnect; resubscription failed")
	}
}

// TestChaosBinaryClients reruns the chaos storm with binary-format
// clients and read-side cuts enabled: byte-budget faults land inside
// frames and headers, and every sequence must still complete exactly
// once.
func TestChaosBinaryClients(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.Chaos(ln, 20080608, faultconn.ChaosConfig{
			FaultRate: 0.4,
			MinBytes:  1,
			MaxBytes:  120,
			Stall:     5 * time.Millisecond,
			ReadCut:   true,
		})
	}, WithDrainTimeout(time.Second))

	const clients = 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := DialOptions(srv.Addr().String(), ClientOptions{
				Timeout:             2 * time.Second,
				MaxAttempts:         10,
				ReconnectBackoffMin: time.Millisecond,
				ReconnectBackoffMax: 20 * time.Millisecond,
				WireFormat:          FormatBinary,
			})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			subject := fmt.Sprintf("bp%d", g)
			for i := 1; i <= 4; i++ {
				batch := make([]*ctx.Context, 3)
				for k := range batch {
					seq := uint64(i*3 + k)
					batch[k] = ctx.NewLocation(subject, t0.Add(time.Duration(seq)*time.Second),
						ctx.Point{X: float64(seq)},
						ctx.WithSeq(seq), ctx.WithSource(subject))
				}
				results, err := cl.SubmitBatch(batch, 0)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for _, r := range results {
					if !r.OK && !strings.Contains(r.Error, "already in pool") {
						t.Errorf("item: %+v", r)
						return
					}
				}
			}
			if _, err := cl.UseLatest(ctx.KindLocation, subject); err != nil {
				t.Errorf("use latest: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if err := func() error {
		cl, err := Dial(srv.Addr().String(), 2*time.Second)
		if err != nil {
			return err
		}
		defer cl.Close()
		return cl.Ping()
	}(); err != nil {
		t.Fatalf("server unhealthy after binary chaos: %v", err)
	}
}

// frontDoor is one address under test: the daemon itself, or a shard
// router in front of a daemon. Every connection-hardening case runs
// against both, since both are served by the one loop.
type frontDoor struct {
	name  string
	addr  string
	stats func() ServerStats
}

// RouterFront starts a shard router (serving with opts) in front of one
// shard daemon and reports its address and transport counters.
// internal/cluster imports this package, so only the external test
// package can link it; routerfront_test.go installs it.
var RouterFront func(t *testing.T, shard string, opts ...Option) (addr string, stats func() ServerStats)

// frontDoors starts a daemon serving with opts, and a router serving with
// the same opts in front of a second, default-tuned daemon.
func frontDoors(t *testing.T, opts ...Option) []frontDoor {
	t.Helper()
	// Registered before the shutdown cleanups, so it runs last.
	t.Cleanup(leakcheck.Check(t))
	srv := startWireServerWith(t, opts...)
	addr, stats := RouterFront(t, startWireServer(t).Addr().String(), opts...)
	return []frontDoor{
		{"daemon", srv.Addr().String(), srv.Stats},
		{"router", addr, stats},
	}
}

// TestCorruptFrameGetsTypedError flips a payload byte after framing; the
// server must answer with a bad-request error and close, never hand the
// corrupt payload to the middleware.
func TestCorruptFrameGetsTypedError(t *testing.T) {
	for _, fd := range frontDoors(t) {
		t.Run(fd.name, func(t *testing.T) {
			rc := dialRawAddr(t, fd.addr, FormatBinary)

			// Frame a ping, then corrupt a byte inside the payload.
			framer, wire := binaryConnOver(nil)
			payload, _ := json.Marshal(Request{Op: OpPing})
			if err := framer.WriteFrame(payload, 0); err != nil {
				t.Fatal(err)
			}
			framed := wire.w.Bytes()
			framed[len(framed)-1] ^= 0x40
			if _, err := rc.conn.Write(framed); err != nil {
				t.Fatal(err)
			}
			body, err := rc.conn.ReadFrame()
			if err != nil {
				t.Fatalf("read error response: %v", err)
			}
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Code != CodeBadRequest {
				t.Fatalf("corrupt frame response = %+v, want %s", resp, CodeBadRequest)
			}
			// The stream is untrusted after corruption: the server closes it.
			if _, err := rc.conn.ReadFrame(); err == nil {
				t.Fatal("connection still open after corrupt frame")
			}
		})
	}
}

// TestOversizedBinaryFrameGetsProtocolError mirrors the line-mode
// oversize test: a frame header claiming more than MaxLineBytes draws the
// typed frame-too-long error without the server reading (or allocating)
// the body.
func TestOversizedBinaryFrameGetsProtocolError(t *testing.T) {
	for _, fd := range frontDoors(t) {
		t.Run(fd.name, func(t *testing.T) {
			rc := dialRawAddr(t, fd.addr, FormatBinary)

			hdr := make([]byte, binFrameHeaderLen)
			hdr[0] = 0xff
			hdr[1] = 0xff
			hdr[2] = 0xff
			hdr[3] = 0x7f // ~2 GiB claimed
			if _, err := rc.conn.Write(hdr); err != nil {
				t.Fatal(err)
			}
			body, err := rc.conn.ReadFrame()
			if err != nil {
				t.Fatalf("read error response: %v", err)
			}
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Code != CodeFrameTooLong {
				t.Fatalf("oversized frame response = %+v, want %s", resp, CodeFrameTooLong)
			}
			if got := fd.stats().FramesTooLong; got != 1 {
				t.Fatalf("FramesTooLong = %d, want 1", got)
			}
		})
	}
}

func TestKindInterning(t *testing.T) {
	a := internKind(ctx.Kind("location"))
	b := internKind(ctx.Kind("loc" + "ation"))
	if a != b {
		t.Fatal("interned kinds differ")
	}
	if internKind("") != "" {
		t.Fatal("empty kind must pass through")
	}
}

// bufConn is a Conn's transport for tests that need no peer: reads come
// from r, writes land in w.
type bufConn struct {
	net.Conn
	r bytes.Reader
	w bytes.Buffer
}

func (b *bufConn) Read(p []byte) (int, error)  { return b.r.Read(p) }
func (b *bufConn) Write(p []byte) (int, error) { return b.w.Write(p) }

// binaryConnOver returns a binary-format Conn reading data and writing
// into the returned transport's buffer.
func binaryConnOver(data []byte) (*Conn, *bufConn) {
	wire := &bufConn{}
	wire.r.Reset(data)
	c := NewConn(wire)
	c.SetFormat(FormatBinary)
	return c, wire
}

// FuzzBinaryFrameRead feeds arbitrary bytes to the frame reader: it must
// never panic, and any payload it accepts must checksum-verify against
// its header.
func FuzzBinaryFrameRead(f *testing.F) {
	framer, wire := binaryConnOver(nil)
	if err := framer.WriteFrame([]byte(`{"op":"ping"}`), 0); err != nil {
		f.Fatal(err)
	}
	good := append([]byte(nil), wire.w.Bytes()...)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	truncated := good[:len(good)-3]
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, wire := binaryConnOver(data)
		payload, err := c.ReadFrame()
		if err != nil {
			return
		}
		if ferr := c.WriteFrame(payload, 0); ferr != nil {
			t.Fatalf("accepted payload does not reframe: %v", ferr)
		}
		reframed := wire.w.Bytes()
		if !bytes.Equal(reframed, data[:len(reframed)]) {
			t.Fatalf("accepted frame is not canonical: %x vs %x", reframed, data[:len(reframed)])
		}
	})
}

// FuzzBinaryFrameRoundTrip checks encode→decode identity for arbitrary
// payloads.
func FuzzBinaryFrameRoundTrip(f *testing.F) {
	f.Add([]byte(`{"op":"ping"}`))
	f.Add([]byte{})
	f.Add([]byte{0, '\n', 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxLineBytes {
			t.Skip()
		}
		framer, wire := binaryConnOver(nil)
		if err := framer.WriteFrame(payload, 0); err != nil {
			t.Fatal(err)
		}
		c, _ := binaryConnOver(wire.w.Bytes())
		got, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("decode framed payload: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip: got %x, want %x", got, payload)
		}
	})
}

// FuzzBatchSubmitDecode decodes arbitrary JSON as a batch-submit request
// and runs it through interning and the full server handler: no input may
// panic, and every accepted batch must answer with index-aligned results
// that re-encode cleanly in both framings.
func FuzzBatchSubmitDecode(f *testing.F) {
	f.Add([]byte(`{"op":"batch-submit","contexts":[{"id":"a","kind":"location","subject":"p"}]}`))
	f.Add([]byte(`{"op":"batch-submit","contexts":[null,null]}`))
	f.Add([]byte(`{"op":"batch-submit"}`))
	f.Add([]byte(`{"op":"batch-submit","contexts":[{"kind":"x"}],"timeoutMillis":-5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			t.Skip()
		}
		req.Op = OpBatchSubmit
		internRequest(&req)
		s := &Server{Loop: &Loop{}, mw: middleware.New(constraint.NewChecker(), strategy.NewDropBad())}
		resp := s.handle(req)
		if resp.OK && len(resp.Results) != len(req.Contexts) {
			t.Fatalf("results = %d, contexts = %d", len(resp.Results), len(req.Contexts))
		}
		payload, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("response does not marshal: %v", err)
		}
		if len(payload) <= MaxLineBytes {
			framer, _ := binaryConnOver(nil)
			if err := framer.WriteFrame(payload, 0); err != nil {
				t.Fatalf("response does not frame: %v", err)
			}
		}
	})
}

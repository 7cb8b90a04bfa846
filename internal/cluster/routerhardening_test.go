package cluster

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/testutil/leakcheck"
)

// stubShard is a fake shard daemon for the hardening cases: a
// daemon.Handler behind the same serving loop that acks everything, and
// parks submissions on hold (announcing each on started) so a test can
// keep a routed request in flight for as long as it needs.
type stubShard struct {
	started chan struct{}
	hold    chan struct{}
}

type stubShardConn struct {
	*stubShard
	subscribed bool
}

func (c *stubShardConn) Handle(req *daemon.Request) (daemon.Response, func()) {
	switch req.Op {
	case daemon.OpSubmit:
		c.started <- struct{}{}
		<-c.hold
	case daemon.OpSubscribe:
		c.subscribed = true
	}
	return daemon.Response{OK: true, SubID: req.SubID}, nil
}

func (c *stubShardConn) Subscribed() bool { return c.subscribed }
func (c *stubShardConn) Close()           {}

func startStubShard(t *testing.T) (*stubShard, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubShard{started: make(chan struct{}, 1), hold: make(chan struct{})}
	l := daemon.ServeLoop(ln, func(*daemon.Peer) daemon.Handler {
		return &stubShardConn{stubShard: stub}
	})
	t.Cleanup(l.Shutdown)
	return stub, l.Addr().String()
}

// dialLine opens a line-format protocol connection to addr.
func dialLine(t *testing.T, addr string) *daemon.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	return daemon.NewConn(nc)
}

// roundTrip writes one raw payload and decodes the next response.
func roundTrip(t *testing.T, c *daemon.Conn, payload string) daemon.Response {
	t.Helper()
	if err := c.WriteFrame([]byte(payload), 0); err != nil {
		t.Fatal(err)
	}
	body, err := c.ReadFrame()
	if err != nil {
		t.Fatalf("read response to %q: %v", payload, err)
	}
	var resp daemon.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return resp
}

// TestRouterInheritsHardening drives a router with the connection
// hardening the daemon earned in PRs 2/5/7 and the router's own loop
// never had. The cases a daemon test already pins by address (oversized
// line and binary header, CRC mismatch, max-conns, idle reaping) run
// against a router there — see frontDoors in internal/daemon; these are
// the ones that need a router-specific set-up: a fault-injecting
// listener, or a shard that holds a request in flight.
func TestRouterInheritsHardening(t *testing.T) {
	cases := []struct {
		name  string
		serve []daemon.Option
		wrap  func(net.Listener) net.Listener
		check func(t *testing.T, r *Router, stub *stubShard)
	}{
		{
			name: "empty line is skipped, not answered",
			check: func(t *testing.T, r *Router, _ *stubShard) {
				c := dialLine(t, r.Addr().String())
				if _, err := c.Write([]byte("\n\r\n")); err != nil {
					t.Fatal(err)
				}
				// The first frame back answers the ping, not the blank lines.
				if resp := roundTrip(t, c, `{"op":"ping"}`); !resp.OK {
					t.Fatalf("response after blank lines = %+v, want the ping ack", resp)
				}
				if got := r.srv.Stats().Requests; got != 1 {
					t.Fatalf("Requests = %d, want 1 (blank lines are not requests)", got)
				}
			},
		},
		{
			name: "malformed JSON draws bad-request and the connection stays usable",
			check: func(t *testing.T, r *Router, _ *stubShard) {
				c := dialLine(t, r.Addr().String())
				resp := roundTrip(t, c, "this is not json")
				if resp.OK || resp.Code != daemon.CodeBadRequest || !strings.HasPrefix(resp.Error, "bad request: ") {
					t.Fatalf("malformed line response = %+v, want a daemon-worded %s", resp, daemon.CodeBadRequest)
				}
				if resp := roundTrip(t, c, `{"op":"ping"}`); !resp.OK {
					t.Fatalf("ping after malformed line = %+v", resp)
				}
				if got := r.srv.Stats().BadRequests; got != 1 {
					t.Fatalf("BadRequests = %d, want 1", got)
				}
			},
		},
		{
			name:  "idle reaper spares a subscribed connection",
			serve: []daemon.Option{daemon.WithIdleTimeout(50 * time.Millisecond)},
			check: func(t *testing.T, r *Router, _ *stubShard) {
				plain := dialLine(t, r.Addr().String())
				subscribed := dialLine(t, r.Addr().String())
				if resp := roundTrip(t, subscribed,
					`{"op":"subscribe","subId":"s1","formula":"exists a: location . true"}`); !resp.OK {
					t.Fatalf("subscribe via router = %+v", resp)
				}
				if _, err := plain.ReadFrame(); err == nil {
					t.Fatal("idle plain connection got a frame, want the reaper's close")
				}
				time.Sleep(150 * time.Millisecond) // three more idle periods
				if resp := roundTrip(t, subscribed, `{"op":"ping"}`); !resp.OK {
					t.Fatalf("subscribed connection after idling = %+v", resp)
				}
				if got := r.srv.Stats().IdleClosed; got != 1 {
					t.Fatalf("IdleClosed = %d, want 1 (the plain connection only)", got)
				}
			},
		},
		{
			name:  "transient Accept errors are survived with backoff",
			serve: []daemon.Option{daemon.WithAcceptBackoff(time.Millisecond, 10*time.Millisecond)},
			wrap: func(ln net.Listener) net.Listener {
				return faultconn.NewListener(ln, faultconn.WithTransientAcceptErrors(3))
			},
			check: func(t *testing.T, r *Router, _ *stubShard) {
				c := dialLine(t, r.Addr().String())
				if resp := roundTrip(t, c, `{"op":"ping"}`); !resp.OK {
					t.Fatalf("ping after transient accept errors = %+v", resp)
				}
				if got := r.srv.Stats().AcceptRetries; got != 3 {
					t.Fatalf("AcceptRetries = %d, want 3", got)
				}
			},
		},
		{
			name:  "Shutdown drains an in-flight request",
			serve: []daemon.Option{daemon.WithDrainTimeout(5 * time.Second)},
			check: func(t *testing.T, r *Router, stub *stubShard) {
				client, err := daemon.DialOptions(r.Addr().String(), daemon.ClientOptions{
					Timeout:     10 * time.Second,
					MaxAttempts: 1, // a dropped response must surface as an error
				})
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				submitErr := make(chan error, 1)
				go func() {
					_, err := client.Submit(ctx.NewLocation("peter", time.Unix(0, 0), ctx.Point{},
						ctx.WithID("d1"), ctx.WithSource("tracker")))
					submitErr <- err
				}()
				<-stub.started // the request is in flight on the shard hop
				shutdownDone := make(chan struct{})
				go func() {
					r.Shutdown()
					close(shutdownDone)
				}()
				time.Sleep(20 * time.Millisecond) // let Shutdown enter the drain loop
				close(stub.hold)
				if err := <-submitErr; err != nil {
					t.Fatalf("in-flight routed submit dropped during shutdown: %v", err)
				}
				select {
				case <-shutdownDone:
				case <-time.After(10 * time.Second):
					t.Fatal("shutdown never completed")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Registered before the shutdown cleanups, so it runs last.
			t.Cleanup(leakcheck.Check(t))
			stub, shard := startStubShard(t)
			r, err := newRouter(RouterOptions{Shards: []string{shard}, Timeout: 5 * time.Second, Serve: tc.serve})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if tc.wrap != nil {
				ln = tc.wrap(ln)
			}
			r.serve(ln)
			t.Cleanup(r.Shutdown)
			tc.check(t, r, stub)
		})
	}
}

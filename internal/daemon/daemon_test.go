package daemon

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/testutil/leakcheck"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

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

func loc(id string, seq uint64, x float64) *ctx.Context {
	return ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second),
		ctx.Point{X: x},
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("tracker"))
}

// startServer brings up a server with a drop-bad middleware and a
// one-situation engine on an ephemeral port; it shuts down with the test.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	// Registered before the shutdown cleanups, so it runs last and
	// verifies the server's goroutines are gone.
	t.Cleanup(leakcheck.Check(t))
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
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return srv, client
}

func TestPing(t *testing.T) {
	_, client := startServer(t)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitUseRoundTrip(t *testing.T) {
	_, client := startServer(t)
	vios, err := client.Submit(loc("d1", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 0 {
		t.Fatalf("violations = %v", vios)
	}
	got, err := client.Use("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "d1" || got.Subject != "peter" {
		t.Fatalf("Use = %v", got)
	}
	p, ok := ctx.LocationPoint(got)
	if !ok || p != (ctx.Point{X: 0}) {
		t.Fatalf("payload = %v, %v", p, ok)
	}
}

func TestSubmitReportsViolations(t *testing.T) {
	_, client := startServer(t)
	if _, err := client.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	vios, err := client.Submit(loc("d2", 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 1 || vios[0].Constraint != "vel" || len(vios[0].Contexts) != 2 {
		t.Fatalf("violations = %+v", vios)
	}
}

func TestUseErrorsPropagate(t *testing.T) {
	_, client := startServer(t)
	_, err := client.Use("ghost")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Error(), "not found") {
		t.Fatalf("message = %q", remote.Error())
	}
}

func TestUseLatest(t *testing.T) {
	_, client := startServer(t)
	for i, id := range []string{"d1", "d2"} {
		if _, err := client.Submit(loc(id, uint64(i+1), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.UseLatest(ctx.KindLocation, "peter")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "d2" {
		t.Fatalf("UseLatest = %v", got.ID)
	}
	if _, err := client.UseLatest("", ""); err == nil {
		t.Fatal("missing kind accepted")
	}
}

// TestSituationsConcurrentWithUse answers the situations op while another
// goroutine submits and uses contexts whose deliveries switch a situation
// on and off. Under -race it pins that the op reads the engine's
// activation state under the middleware lock, never beside it.
func TestSituationsConcurrentWithUse(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	engine := situation.NewEngine()
	engine.MustRegister(&situation.Situation{
		Name:    "present",
		Formula: constraint.Exists("a", ctx.KindLocation, constraint.SubjectIs("a", "peter")),
	})
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(), middleware.WithSituations(engine))
	srv, err := Serve("127.0.0.1:0", mw, engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	const rounds = 100
	done := make(chan error, 1)
	go func() {
		// Peter's location lives one second; delivering mary's, half a
		// second after it expired, deactivates "present" again.
		for i := 0; i < rounds; i++ {
			at := t0.Add(time.Duration(2*i) * time.Second)
			for _, c := range []*ctx.Context{
				ctx.NewLocation("peter", at, ctx.Point{}, ctx.WithID(ctx.ID(fmt.Sprintf("p%d", i))), ctx.WithTTL(time.Second)),
				ctx.NewLocation("mary", at.Add(1500*time.Millisecond), ctx.Point{}, ctx.WithID(ctx.ID(fmt.Sprintf("m%d", i)))),
			} {
				if _, err := mw.Submit(c); err != nil {
					done <- err
					return
				}
				if _, err := mw.Use(c.ID); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if n := engine.Activations(); n != rounds {
				t.Fatalf("activations = %d, want %d", n, rounds)
			}
			return
		default:
			if _, err := client.Situations(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStatsAndSituations(t *testing.T) {
	_, client := startServer(t)
	if _, err := client.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Use("d1"); err != nil {
		t.Fatal(err)
	}
	mwStats, poolStats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if mwStats.Submitted != 1 || mwStats.Delivered != 1 {
		t.Fatalf("middleware stats = %+v", mwStats)
	}
	if poolStats.Added != 1 || poolStats.Used != 1 {
		t.Fatalf("pool stats = %+v", poolStats)
	}
	active, err := client.Situations()
	if err != nil {
		t.Fatal(err)
	}
	if !active["present"] {
		t.Fatalf("situations = %v", active)
	}
}

func TestMalformedRequestLine(t *testing.T) {
	for _, fd := range frontDoors(t) {
		t.Run(fd.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("this is not json\n")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4096)
			if err := SetConnDeadline(conn, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			resp := string(buf[:n])
			if !strings.Contains(resp, `"ok":false`) || !strings.Contains(resp, "bad request") {
				t.Fatalf("response = %q", resp)
			}
		})
	}
}

func TestUnknownOp(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"dance"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "unknown op") {
		t.Fatalf("response = %q", buf[:n])
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			src := string(rune('A' + g))
			for i := 1; i <= 25; i++ {
				c := ctx.NewLocation("p"+src,
					t0.Add(time.Duration(i)*time.Second),
					ctx.Point{X: float64(i)},
					ctx.WithSeq(uint64(i)), ctx.WithSource(src))
				if _, err := cl.Submit(c); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
			if _, err := cl.UseLatest(ctx.KindLocation, "p"+src); err != nil {
				t.Errorf("use latest: %v", err)
			}
		}(g)
	}
	wg.Wait()
	cl, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mwStats, _, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if mwStats.Submitted != clients*25 {
		t.Fatalf("submitted = %d", mwStats.Submitted)
	}
}

func TestShutdownIdempotentAndJoins(t *testing.T) {
	engine := situation.NewEngine()
	mw := middleware.New(velocityChecker(t), strategy.NewDropLatest())
	srv, err := Serve("127.0.0.1:0", mw, engine)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	srv.Shutdown() // idempotent
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed")
	}
	// Connection is gone: the next request fails.
	if err := client.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
	// New connections are refused.
	if _, err := Dial(srv.Addr().String(), 500*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestServeBadAddr(t *testing.T) {
	mw := middleware.New(velocityChecker(t), strategy.NewDropLatest())
	if _, err := Serve("256.256.256.256:1", mw, nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestLargePayloadWithinLimit(t *testing.T) {
	_, client := startServer(t)
	fields := map[string]ctx.Value{}
	big := strings.Repeat("x", 64<<10) // 64 KiB string field
	fields["blob"] = ctx.String(big)
	c := ctx.New(ctx.KindPresence, t0, fields, ctx.WithID("big"))
	if _, err := client.Submit(c); err != nil {
		t.Fatal(err)
	}
	got, err := client.Use("big")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.StrField("blob"); len(s) != len(big) {
		t.Fatalf("blob length = %d", len(s))
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	_, client := startServer(t)
	if _, err := client.Submit(loc("dup", 1, 0)); err != nil {
		t.Fatal(err)
	}
	_, err := client.Submit(loc("dup", 1, 0))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitMissingContext(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"submit"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "missing context") {
		t.Fatalf("response = %q", buf[:n])
	}
}

func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		mw := middleware.New(velocityChecker(t), strategy.NewDropLatest())
		srv, err := Serve("127.0.0.1:0", mw, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
		srv.Shutdown()
	}
	// Allow the runtime to reap finished goroutines.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

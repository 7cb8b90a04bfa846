package daemon

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon/faultconn"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
)

// serveFaulty starts a server on a fault-injecting listener built by wrap.
func serveFaulty(t *testing.T, wrap func(net.Listener) net.Listener, opts ...Option) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad())
	srv := ServeListener(wrap(ln), mw, nil, opts...)
	t.Cleanup(srv.Shutdown)
	return srv
}

func TestAcceptSurvivesTransientErrors(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithTransientAcceptErrors(3))
	}, WithAcceptBackoff(time.Millisecond, 10*time.Millisecond))

	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatalf("ping after transient accept errors: %v", err)
	}
	if got := srv.Stats().AcceptRetries; got != 3 {
		t.Fatalf("AcceptRetries = %d, want 3", got)
	}
	if got := srv.Stats().Accepted; got != 1 {
		t.Fatalf("Accepted = %d, want 1", got)
	}
}

func TestClientReconnectsAfterBrokenWrite(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener { return ln })

	var mu sync.Mutex
	dials := 0
	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		MaxAttempts:         3,
		ReconnectBackoffMin: time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			dials++
			if dials == 1 {
				// First connection dies mid-request: the write is truncated
				// after 5 bytes and the socket closed.
				return faultconn.Wrap(conn, faultconn.CutAfterWrites(5)), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Ping(); err != nil {
		t.Fatalf("ping across a broken connection: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if dials != 2 {
		t.Fatalf("dials = %d, want 2 (initial + reconnect)", dials)
	}
}

func TestClientReconnectsAfterTruncatedResponse(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener { return ln })

	dials := 0
	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		ReconnectBackoffMin: time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				// The request goes out whole, but the response is cut after
				// 4 bytes — a mid-frame disconnect while reading.
				return faultconn.Wrap(conn, faultconn.CutAfterReads(4)), nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The full sequence completes despite the first response being cut. The
	// first attempt's submission landed server-side, so the resend may be
	// answered with the pool's duplicate rejection — the documented signal
	// that the original was applied.
	if _, err := client.Submit(loc("d1", 1, 0)); err != nil && !isDuplicate(err) {
		t.Fatalf("submit: %v", err)
	}
	got, err := client.Use("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "d1" {
		t.Fatalf("Use = %v", got.ID)
	}
}

func TestClientTimeoutDoesNotDesyncFraming(t *testing.T) {
	// The first server-side connection stalls every write past the client
	// deadline. The pre-reconnect client would keep the connection and later
	// read the stale, late response as the answer to its next request; the
	// state machine must instead drop the connection and redial.
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.NewListener(ln, faultconn.WithConnWrapper(
			func(i int, c net.Conn) net.Conn {
				if i == 0 {
					return faultconn.Wrap(c, faultconn.WithWriteStall(300*time.Millisecond))
				}
				return c
			}))
	}, WithDrainTimeout(100*time.Millisecond))

	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             75 * time.Millisecond,
		MaxAttempts:         4,
		ReconnectBackoffMin: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Submit(loc("d1", 1, 0)); err != nil && !isDuplicate(err) {
		t.Fatalf("submit through stalled connection: %v", err)
	}
	// Framing is intact: a typed response comes back for the right request.
	got, err := client.Use("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "d1" || got.Subject != "peter" {
		t.Fatalf("Use = %+v, framing desynced", got)
	}
}

func TestOversizedFrameGetsProtocolError(t *testing.T) {
	for _, fd := range frontDoors(t) {
		t.Run(fd.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := SetConnDeadline(conn, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			// A line longer than MaxLineBytes, never terminated.
			huge := make([]byte, MaxLineBytes+16)
			for i := range huge {
				huge[i] = 'a'
			}
			if _, err := conn.Write(huge); err != nil {
				t.Fatalf("write oversized frame: %v", err)
			}
			buf := make([]byte, 4096)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("read error response: %v", err)
			}
			resp := string(buf[:n])
			if !strings.Contains(resp, string(CodeFrameTooLong)) || !strings.Contains(resp, `"ok":false`) {
				t.Fatalf("response = %q, want a %s protocol error", resp, CodeFrameTooLong)
			}
			if got := fd.stats().FramesTooLong; got != 1 {
				t.Fatalf("FramesTooLong = %d, want 1", got)
			}
		})
	}
}

func TestMaxConnsCapAnswersBusy(t *testing.T) {
	for _, fd := range frontDoors(t, WithMaxConns(1)) {
		t.Run(fd.name, func(t *testing.T) {
			first, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer first.Close()
			if err := SetConnDeadline(first, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4096)
			if _, err := first.Read(buf); err != nil {
				t.Fatal(err) // first connection is serving; the cap is occupied
			}

			second, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			if err := SetConnDeadline(second, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			n, err := second.Read(buf)
			if err != nil {
				t.Fatalf("read busy response: %v", err)
			}
			if resp := string(buf[:n]); !strings.Contains(resp, string(CodeBusy)) {
				t.Fatalf("response = %q, want %s", resp, CodeBusy)
			}
			if got := fd.stats().RejectedFull; got != 1 {
				t.Fatalf("RejectedFull = %d, want 1", got)
			}

			// Freeing the slot lets new connections in again.
			_ = first.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				cl, err := Dial(fd.addr, time.Second)
				if err == nil {
					pingErr := cl.Ping()
					_ = cl.Close()
					if pingErr == nil {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatal("slot never freed after closing the first connection")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestShutdownDrainsInFlightRequest(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad(),
		middleware.WithHooks(onAccept(func() {
			started <- struct{}{}
			<-release
		})))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeListener(ln, mw, nil, WithDrainTimeout(5*time.Second))

	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:     10 * time.Second,
		MaxAttempts: 1, // a dropped response must surface as an error
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	submitErr := make(chan error, 1)
	go func() {
		_, err := client.Submit(loc("d1", 1, 0))
		submitErr <- err
	}()

	<-started // the request is in flight inside the middleware
	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown enter the drain loop
	close(release)

	if err := <-submitErr; err != nil {
		t.Fatalf("in-flight submit dropped during shutdown: %v", err)
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never completed")
	}
}

func TestIdleConnectionsAreReaped(t *testing.T) {
	for _, fd := range frontDoors(t, WithIdleTimeout(50*time.Millisecond)) {
		t.Run(fd.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", fd.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := SetConnDeadline(conn, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			// Idle past the deadline: the server closes the connection.
			buf := make([]byte, 64)
			if _, err := conn.Read(buf); err == nil {
				t.Fatal("read succeeded, want server-side close")
			}
			deadline := time.Now().Add(5 * time.Second)
			for fd.stats().IdleClosed == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("IdleClosed = %d, want 1", fd.stats().IdleClosed)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestChaosSequenceCompletes runs a request sequence against a server whose
// accepted connections are randomly cut or stalled (seeded, reproducible)
// and requires every operation to complete through reconnect + retry.
func TestChaosSequenceCompletes(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.Chaos(ln, 20080617, faultconn.ChaosConfig{
			FaultRate: 0.4,
			MinBytes:  1,
			MaxBytes:  120,
			Stall:     5 * time.Millisecond,
		})
	}, WithDrainTimeout(time.Second))

	client, err := DialOptions(srv.Addr().String(), ClientOptions{
		Timeout:             2 * time.Second,
		MaxAttempts:         10,
		ReconnectBackoffMin: time.Millisecond,
		ReconnectBackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 30
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("c%d", i)
		c := ctx.NewLocation("peter", t0.Add(time.Duration(i)*time.Second),
			ctx.Point{X: float64(i)},
			ctx.WithID(ctx.ID(id)), ctx.WithSeq(uint64(i)), ctx.WithSource("s"))
		_, err := client.Submit(c)
		if err != nil && !isDuplicate(err) {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	if _, err := client.UseLatest(ctx.KindLocation, "peter"); err != nil {
		t.Fatalf("use latest: %v", err)
	}
	_, poolStats, err := client.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if poolStats.Added != n {
		t.Fatalf("pool added = %d, want %d (retries must not double-apply)", poolStats.Added, n)
	}
	if err := client.Ping(); err != nil {
		t.Fatalf("server unhealthy after chaos run: %v", err)
	}
}

// isDuplicate recognizes the pool's duplicate-ID rejection: the signal
// that a retried submit's first attempt actually landed.
func isDuplicate(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && strings.Contains(remote.Message, "already in pool")
}

// TestChaosConcurrentClients exercises the locked serving paths under
// -race: several clients run fault-ridden sequences at once.
func TestChaosConcurrentClients(t *testing.T) {
	srv := serveFaulty(t, func(ln net.Listener) net.Listener {
		return faultconn.Chaos(ln, 7, faultconn.ChaosConfig{
			FaultRate: 0.3,
			MinBytes:  1,
			MaxBytes:  80,
		})
	}, WithDrainTimeout(time.Second))

	const clients = 6
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
			})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			subject := fmt.Sprintf("p%d", g)
			for i := 1; i <= 10; i++ {
				c := ctx.NewLocation(subject, t0.Add(time.Duration(i)*time.Second),
					ctx.Point{X: float64(i)},
					ctx.WithSeq(uint64(i)), ctx.WithSource(subject))
				if _, err := cl.Submit(c); err != nil && !isDuplicate(err) {
					t.Errorf("submit: %v", err)
					return
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
		t.Fatalf("server unhealthy after concurrent chaos: %v", err)
	}
}

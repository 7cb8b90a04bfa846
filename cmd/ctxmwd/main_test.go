package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/telemetry"
)

func TestProfiles(t *testing.T) {
	for _, app := range []string{"callforward", "rfid"} {
		checker, engine, err := profile(app)
		if err != nil {
			t.Fatalf("profile(%s): %v", app, err)
		}
		if len(checker.Constraints()) != 5 {
			t.Fatalf("%s constraints = %d", app, len(checker.Constraints()))
		}
		if len(engine.Situations()) != 3 {
			t.Fatalf("%s situations = %d", app, len(engine.Situations()))
		}
	}
	if _, _, err := profile("bogus"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSetupServesAndResponds(t *testing.T) {
	d, err := setup([]string{"-addr", "127.0.0.1:0", "-app", "rfid", "-strategy", "D-LAT"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Shutdown()
	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupVersionExitsCleanly(t *testing.T) {
	d, err := setup([]string{"-version"})
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		d.srv.Shutdown()
		t.Fatal("-version started a daemon")
	}
	if v := telemetry.VersionString("ctxmwd"); !strings.Contains(v, "ctxmwd") || !strings.Contains(v, "go") {
		t.Fatalf("version string = %q", v)
	}
}

func TestSetupErrors(t *testing.T) {
	if _, err := setup([]string{"-app", "bogus"}); err == nil {
		t.Fatal("bad app accepted")
	}
	if _, err := setup([]string{"-strategy", "bogus"}); err == nil {
		t.Fatal("bad strategy accepted")
	}
	if _, err := setup([]string{"-constraints", "/does/not/exist"}); err == nil {
		t.Fatal("missing constraints file accepted")
	}
	if _, err := setup([]string{"-addr", "256.256.256.256:1"}); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := setup([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "256.256.256.256:1"}); err == nil {
		t.Fatal("bad metrics address accepted")
	}
	if _, err := setup([]string{"-span-log", filepath.Join(t.TempDir(), "no", "such", "dir", "s.jsonl")}); err == nil {
		t.Fatal("unopenable span log accepted")
	}
}

func TestSetupFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative idle", []string{"-idle-timeout", "-1s"}, "-idle-timeout"},
		{"zero drain", []string{"-drain-timeout", "0"}, "-drain-timeout"},
		{"negative drain", []string{"-drain-timeout", "-2s"}, "-drain-timeout"},
		{"negative max-conns", []string{"-max-conns", "-5"}, "-max-conns"},
		{"negative fsync-interval", []string{"-fsync-interval", "-1s"}, "-fsync-interval"},
		{"negative snapshot", []string{"-snapshot-interval", "-1m"}, "-snapshot-interval"},
		{"negative compact", []string{"-compact-interval", "-1m"}, "-compact-interval"},
		{"negative max-pending", []string{"-max-pending", "-1"}, "-max-pending"},
		{"negative check-timeout", []string{"-check-timeout", "-1s"}, "-check-timeout"},
		{"trip over one", []string{"-breaker-trip", "1.5"}, "-breaker-trip"},
		{"negative trip", []string{"-breaker-trip", "-0.1"}, "-breaker-trip"},
		{"negative window", []string{"-breaker-window", "-8"}, "-breaker-window"},
		{"negative cooldown", []string{"-breaker-cooldown", "-30s"}, "-breaker-cooldown"},
		{"zero max-subscribers", []string{"-max-subscribers", "0"}, "-max-subscribers"},
		{"below unlimited", []string{"-max-subscribers", "-2"}, "-max-subscribers"},
		{"zero sub-queue", []string{"-sub-queue", "0"}, "-sub-queue"},
		{"negative sub-queue", []string{"-sub-queue", "-4"}, "-sub-queue"},
		{"router without shards", []string{"-router"}, "-shards"},
		{"shards without router", []string{"-shards", "127.0.0.1:1"}, "-router"},
		{"router with follow", []string{"-router", "-shards", "127.0.0.1:1", "-follow", "127.0.0.1:2"}, "mutually exclusive"},
		{"router with data-dir", []string{"-router", "-shards", "127.0.0.1:1", "-data-dir", "/tmp/x"}, "-data-dir"},
		{"follow without data-dir", []string{"-follow", "127.0.0.1:1"}, "-data-dir"},
		{"negative promote-after", []string{"-follow", "127.0.0.1:1", "-data-dir", "/tmp/x", "-promote-after", "-1s"}, "-promote-after"},
		{"promote-after without follow", []string{"-promote-after", "5s"}, "-follow"},
		{"negative lease-ttl", []string{"-lease-ttl", "-1s"}, "-lease-ttl"},
		{"lease-ttl without data-dir", []string{"-lease-ttl", "2s"}, "-data-dir"},
		{"lease-ttl on router", []string{"-router", "-shards", "127.0.0.1:1", "-lease-ttl", "2s"}, "-lease-ttl"},
		{"lease-ttl at promote-after", []string{"-follow", "127.0.0.1:1", "-data-dir", "/tmp/x",
			"-promote-after", "5s", "-lease-ttl", "5s"}, "-lease-ttl"},
		{"lease-ttl above promote-after", []string{"-follow", "127.0.0.1:1", "-data-dir", "/tmp/x",
			"-promote-after", "5s", "-lease-ttl", "6s"}, "-lease-ttl"},
		{"replica set with empty member", []string{"-router", "-shards", "127.0.0.1:1|"}, "-shards"},
		{"replica set with duplicate member", []string{"-router", "-shards", "127.0.0.1:1|127.0.0.1:1"}, "-shards"},
		{"duplicate member across sets", []string{"-router", "-shards", "127.0.0.1:1|127.0.0.1:2,127.0.0.1:2|127.0.0.1:3"}, "-shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			d, err := setup(args)
			if err == nil {
				d.srv.Shutdown()
				t.Fatalf("setup(%v) accepted an invalid value", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
	// Zero stays the documented "disabled" setting where it is one.
	d, err := setup([]string{"-addr", "127.0.0.1:0",
		"-idle-timeout", "0", "-snapshot-interval", "0", "-compact-interval", "0"})
	if err != nil {
		t.Fatal(err)
	}
	d.srv.Shutdown()
}

// TestSetupResilienceFlagsWire proves -max-pending and -breaker-trip reach
// the middleware: under a cap of 1, a submission arriving while another
// still holds the middleware is shed as overloaded, and the stats op
// carries a health snapshot once breakers are on.
func TestSetupResilienceFlagsWire(t *testing.T) {
	d, err := setup([]string{"-addr", "127.0.0.1:0",
		"-max-pending", "1", "-check-timeout", "5s", "-breaker-trip", "0.9"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Shutdown()
	t0 := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	loc := func(seq uint64) *ctx.Context {
		return ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second),
			ctx.Point{X: float64(seq)}, ctx.WithSeq(seq), ctx.WithSource("s"))
	}

	// A middleware from the same constructor the daemon serves, with a
	// delta hook that parks the first submission under the lock.
	build, err := d.pipeline()
	if err != nil {
		t.Fatal(err)
	}
	mw := build()
	started, release := make(chan struct{}), make(chan struct{})
	mw.SetDeltaHook(func(middleware.Delta) { close(started); <-release })
	done := make(chan error, 1)
	go func() { _, err := mw.Submit(loc(1)); done <- err }()
	<-started
	if _, err := mw.Submit(loc(2)); !errors.Is(err, middleware.ErrOverloaded) {
		t.Fatalf("err = %v, want the submission shed under -max-pending 1", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Submit(loc(1)); err != nil {
		t.Fatal(err)
	}
	_, hs, err := client.Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if hs == nil {
		t.Fatal("no health snapshot despite -breaker-trip")
	}
}

// TestSetupSubscriptionFlagsWire proves -max-subscribers and -sub-queue
// reach the daemon: under a cap of 1 the first subscription registers and
// the second is refused with the typed server-busy code.
func TestSetupSubscriptionFlagsWire(t *testing.T) {
	d, err := setup([]string{"-addr", "127.0.0.1:0",
		"-max-subscribers", "1", "-sub-queue", "8"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Shutdown()
	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	formula := `exists a: location . subjectIs(a, "peter")`
	if err := client.SubscribeFormula("s1", formula, func(string, daemon.WireEvent) {}); err != nil {
		t.Fatalf("first subscribe: %v", err)
	}
	err = client.SubscribeFormula("s2", formula, func(string, daemon.WireEvent) {})
	if daemon.ErrorCode(err) != daemon.CodeBusy {
		t.Fatalf("second subscribe = %v, want %s", err, daemon.CodeBusy)
	}
	if st := d.srv.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscribers = %d, want 1", st.Subscribers)
	}
}

func TestSetupWithConstraintsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.ctx")
	content := `constraint velocity
forall a: location .
  forall b: location .
    (sameSubject(a, b) and streamAdjacent(a, b)) implies velocityBelow(a, b, 1.5)
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := setup([]string{"-addr", "127.0.0.1:0", "-constraints", path})
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Shutdown()

	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	t0 := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	mk := func(id string, seq uint64, x float64) *ctx.Context {
		return ctx.NewLocation("peter", t0.Add(time.Duration(seq)*time.Second),
			ctx.Point{X: x},
			ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("s"))
	}
	if _, err := client.Submit(mk("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	vios, err := client.Submit(mk("b", 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 1 || vios[0].Constraint != "velocity" {
		t.Fatalf("violations = %+v, want the loaded constraint to fire", vios)
	}

	// The bad constraints-file branch.
	badPath := filepath.Join(dir, "bad.ctx")
	if err := os.WriteFile(badPath, []byte("constraint x\nnope(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := setup([]string{"-addr", "127.0.0.1:0", "-constraints", badPath}); err == nil {
		t.Fatal("bad constraints file accepted")
	}
}

func TestSetupDurabilityRecoversAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-fsync", "always", "-snapshot-interval", "0", "-compact-interval", "0"}

	d, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 4; i++ {
		c := ctx.NewLocation("peter", t0.Add(time.Duration(i)*time.Second),
			ctx.Point{X: float64(i)},
			ctx.WithID(ctx.ID(string(rune('a'+i)))), ctx.WithSeq(uint64(i)), ctx.WithSource("s"))
		if _, err := client.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	before, beforePool, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	js, err := client.JournalStats()
	if err != nil {
		t.Fatal(err)
	}
	if js == nil || js.Records == 0 {
		t.Fatalf("journal stats = %+v, want records from -data-dir mode", js)
	}
	client.Close()
	d.srv.Shutdown()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same directory: state must come back.
	d2, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.srv.Shutdown()
	client2, err := daemon.Dial(d2.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	after, afterPool, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Submitted != before.Submitted {
		t.Fatalf("submitted = %d after restart, want %d", after.Submitted, before.Submitted)
	}
	if afterPool.Available != beforePool.Available {
		t.Fatalf("available contexts = %d after restart, want %d", afterPool.Available, beforePool.Available)
	}
	if err := d2.stop(); err != nil {
		t.Fatal(err)
	}
}

// TestSetupMetricsEndpoint boots the daemon end to end with -metrics-addr
// and -span-log, drives protocol traffic, and asserts the scraped
// exposition is valid and agrees with the stats op, /healthz is green,
// /statusz carries build info and config, and the span log received one
// JSON line per operation.
func TestSetupMetricsEndpoint(t *testing.T) {
	spanPath := filepath.Join(t.TempDir(), "spans.jsonl")
	d, err := setup([]string{
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-span-log", spanPath,
		"-data-dir", t.TempDir(),
		"-fsync", "always", "-snapshot-interval", "0", "-compact-interval", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.ops == nil {
		t.Fatal("no ops server despite -metrics-addr")
	}
	client, err := daemon.Dial(d.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	x := 0.0
	for i := 1; i <= 10; i++ {
		x += 1
		if i%4 == 0 {
			x += 9 // force velocity violations so check/resolve stages run hot
		}
		c := ctx.NewLocation("peter", t0.Add(time.Duration(i)*time.Second),
			ctx.Point{X: x},
			ctx.WithID(ctx.ID(fmt.Sprintf("m-%02d", i))), ctx.WithSeq(uint64(i)), ctx.WithSource("s"))
		if _, err := client.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Use("m-01"); err != nil && !errors.Is(err, middleware.ErrInconsistent) {
		t.Fatal(err)
	}
	mwStats, _, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.ops.Addr().String()
	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := telemetry.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	want := fmt.Sprintf("ctxres_submits_total %d", mwStats.Submitted)
	if !strings.Contains(body, want) {
		t.Fatalf("exposition missing %q:\n%s", want, body)
	}
	for _, name := range []string{
		`ctxres_stage_seconds_bucket{stage="check",le="+Inf"}`,
		`ctxres_stage_seconds_bucket{stage="resolve",le="+Inf"}`,
		`ctxres_wal_fsync_seconds_count`,
		`ctxres_request_seconds_bucket{op="submit",le="+Inf"}`,
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("exposition missing %s:\n%s", name, body)
		}
	}

	if code, body = get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d", code)
	}
	var status struct {
		Build    telemetry.Build `json:"build"`
		App      string          `json:"app"`
		Strategy string          `json:"strategy"`
		PoolCtxs int             `json:"poolContexts"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if status.Build.GoVersion == "" || status.App != "callforward" || status.Strategy == "" {
		t.Fatalf("statusz incomplete: %s", body)
	}
	if status.PoolCtxs == 0 {
		t.Fatalf("statusz pool empty after submissions: %s", body)
	}

	client.Close()
	d.srv.Shutdown()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}

	// The span log holds one JSON line per pipeline operation.
	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var submitSpans int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line not JSON: %v: %s", err, sc.Text())
		}
		if sp.Op == "submit" {
			submitSpans++
			if len(sp.Stages) == 0 {
				t.Fatalf("submit span has no stages: %s", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if submitSpans != mwStats.Submitted {
		t.Fatalf("span log has %d submit spans, want %d", submitSpans, mwStats.Submitted)
	}
}

// TestSetupServeFlagsReachEveryRole proves the connection limits are not
// a daemon-only courtesy: -max-conns, -idle-timeout and -drain-timeout
// reach the serving loop of a shard router exactly as they reach a
// daemon's. The router's one shard is a black hole — it accepts and
// never answers — so a routed request stays in flight until released.
func TestSetupServeFlagsReachEveryRole(t *testing.T) {
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	held := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			held <- c
		}
	}()

	flags := []string{"-addr", "127.0.0.1:0", "-max-conns", "2", "-idle-timeout", "300ms", "-drain-timeout", "150ms"}
	for _, role := range []struct {
		name  string
		extra []string
	}{
		{"daemon", nil},
		{"router", []string{"-router", "-shards", hole.Addr().String()}},
	} {
		t.Run(role.name, func(t *testing.T) {
			d, err := setup(append(append([]string(nil), flags...), role.extra...))
			if err != nil {
				t.Fatal(err)
			}
			addr, shutdown := "", func() {}
			if d.router != nil {
				addr, shutdown = d.router.Addr().String(), d.router.Shutdown
			} else {
				addr, shutdown = d.srv.Addr().String(), d.srv.Shutdown
			}
			defer shutdown()
			dial := func() net.Conn {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = c.Close() })
				_ = c.SetDeadline(time.Now().Add(5 * time.Second))
				return c
			}

			// -idle-timeout: a silent connection is closed by the server.
			idle := dial()
			if _, err := idle.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
				t.Fatalf("idle connection read = %v, want the reaper's close", err)
			}

			// -max-conns: with two connections serving, a third is turned away.
			busy, second := dial(), dial()
			for _, c := range []net.Conn{busy, second} {
				if _, err := c.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
					t.Fatal(err)
				}
				if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
					t.Fatalf("ping: %v", err)
				}
			}
			line, err := bufio.NewReader(dial()).ReadString('\n')
			if err != nil || !strings.Contains(line, string(daemon.CodeBusy)) {
				t.Fatalf("over-cap connection got %q (%v), want %s", line, err, daemon.CodeBusy)
			}

			if d.router == nil {
				return
			}
			// -drain-timeout: Shutdown gives the in-flight routed use 150ms,
			// not the 5s default, before force-closing its connection.
			if _, err := busy.Write([]byte(`{"op":"use","id":"d1"}` + "\n")); err != nil {
				t.Fatal(err)
			}
			upstream := <-held // the use is in flight on the shard hop
			start := time.Now()
			done := make(chan struct{})
			go func() {
				shutdown()
				close(done)
			}()
			if _, err := busy.Read(make([]byte, 64)); err == nil {
				t.Fatal("in-flight connection got a response from a black-hole shard")
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("in-flight connection force-closed after %v, want ~-drain-timeout (150ms)", waited)
			}
			_ = upstream.Close() // release the handler so Shutdown can join it
			<-done
		})
	}
}

// TestPromotedFollowerServesLeaderOps pins that promotion switches the ops
// endpoint too: a follower started with -metrics-addr answers /statusz
// with the leader's sections and role promoted-leader once promoted, and
// its /healthz is the promoted server's Health — green while the journal
// is fine, 503 once a periodic checkpoint fails (the data directory is
// removed under it).
func TestPromotedFollowerServesLeaderOps(t *testing.T) {
	leader, err := setup([]string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(),
		"-fsync", "always", "-snapshot-interval", "0", "-compact-interval", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.stop()
	followerDir := t.TempDir()
	follower, err := setup([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-follow", leader.srv.Addr().String(), "-data-dir", followerDir, "-lease-ttl", "30s",
		"-snapshot-interval", "50ms", "-compact-interval", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.stop()

	base := "http://" + follower.ops.Addr().String()
	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	statusz := func() map[string]any {
		code, body := get("/statusz")
		if code != http.StatusOK {
			t.Fatalf("/statusz = %d", code)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("statusz not JSON: %v\n%s", err, body)
		}
		return m
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	client, err := daemon.Dial(leader.srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := ctx.NewLocation("peter", time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC), ctx.Point{X: 1},
		ctx.WithSeq(1), ctx.WithSource("s"))
	if _, err := client.Submit(c); err != nil {
		t.Fatal(err)
	}
	client.Close()
	waitFor("the follower to replicate the submission", func() bool {
		m := statusz()
		return m["role"] == "follower" && m["lastSeq"] != float64(0) && m["lagRecords"] == float64(0)
	})

	if err := follower.promote(); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("promoted /healthz = %d %q", code, body)
	}
	m := statusz()
	if m["role"] != "promoted-leader" {
		t.Fatalf("promoted role = %v, want promoted-leader", m["role"])
	}
	for _, key := range []string{"middleware", "daemon", "replication", "epoch", "lease",
		"poolContexts", "sigmaSize", "provenance"} {
		if _, ok := m[key]; !ok {
			t.Errorf("promoted /statusz lacks %q", key)
		}
	}
	if m["poolContexts"] != float64(1) {
		t.Errorf("promoted poolContexts = %v, want the replicated context", m["poolContexts"])
	}

	if err := os.RemoveAll(followerDir); err != nil {
		t.Fatal(err)
	}
	waitFor("/healthz to report the failed checkpoint", func() bool {
		code, _ := get("/healthz")
		return code == http.StatusServiceUnavailable
	})
}

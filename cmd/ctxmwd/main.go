// Command ctxmwd runs the context middleware as a network daemon: context
// sources and applications connect over TCP and speak the line-delimited
// JSON protocol of internal/daemon.
//
//	ctxmwd -addr 127.0.0.1:7654 -app callforward -strategy D-BAD
//
// -app selects the bundled constraint/situation sets (callforward, rfid);
// -strategy selects the resolution strategy (D-BAD, D-LAT, D-ALL, D-RAND,
// OPT-R); -idle-timeout, -max-conns, and -drain-timeout tune the serving
// path.
//
// -data-dir enables durability: every state-changing operation is
// journaled to a write-ahead log in that directory, and on startup the
// daemon recovers the middleware state from it (snapshot plus replay; a
// torn final record from a crash is truncated). -fsync selects the sync
// policy (always, interval, never), -snapshot-interval the checkpoint
// cadence, and -compact-interval the pool-compaction cadence. The daemon
// stops on SIGINT/SIGTERM after draining in-flight requests, writing a
// final checkpoint when durability is on.
//
// -group-commit coalesces concurrent WAL commits into shared fsyncs:
// each acknowledgment is still released only after the fsync covering its
// record, so the durability contract is unchanged — only the fsync count
// drops. -commit-delay lets the commit leader linger for more appends and
// -commit-batch caps how many it waits for. Clients may negotiate the
// length-prefixed binary wire format (and batch submissions) per
// connection; the daemon serves line JSON and binary transparently.
//
// Overload resilience is opt-in: -max-pending caps the submit queue
// (excess submissions are shed with a typed "overloaded" code),
// -degrade-at/-resume-at bound the degraded mode that defers consistency
// checks under pressure and catches up once load drops, -check-timeout
// arms the check watchdog (a stuck or panicking check aborts with a
// typed "check-timeout" code instead of wedging the daemon), and
// -breaker-trip enables per-source circuit breakers (-breaker-window,
// -breaker-cooldown tune them) that quarantine sources producing too
// many bad contexts, answering them with "source-quarantined".
//
// Clustering (see internal/cluster and DESIGN.md): -follow runs the
// daemon as a replication follower tailing a leader's WAL over the
// protocol's replicate op into -data-dir; -promote-after makes it take
// over — recover the replicated log and start serving on -addr — once
// the leader has been unreachable that long. A leader needs no extra
// flags: whenever -data-dir is set the daemon serves replication streams
// to any follower that connects. -lease-ttl arms the split-brain guard: a
// leader that stops receiving follower acks for that long fences itself,
// shedding state-changing operations with the typed "stale-leader" code
// (reads keep working) until acks resume; pair it with a follower
// -promote-after strictly longer than the TTL so the deposed side sheds
// before the promoted side serves. Promotion bumps the journal's fencing
// epoch, so a resurrected old leader's replication stream is refused by
// followers that already saw the new epoch. -router runs a wire-compatible
// shard router gateway instead of a daemon: -shards lists the shard
// daemons, contexts partition across them by source over a consistent-hash
// ring, and constraints that cannot be proven source-local take a counted
// mirror path. A -shards element may be a replica set —
// "primary|replica,..." — in which case the router health-probes the
// members, follows the highest fencing epoch to the current leader, and
// re-points the shard on failover (counted in
// ctxres_router_failovers_total).
//
// -metrics-addr serves the operational HTTP endpoint: /metrics
// (Prometheus text exposition), /healthz (503 once the WAL has
// fail-stopped or maintenance fails), /statusz (JSON status: build info,
// uptime, configuration, pool and Σ sizes, counters), and /debug/pprof.
// The telemetry registry is always on — the stats op carries its
// snapshot either way — so -metrics-addr only controls the HTTP surface.
// -span-log appends one JSON line per pipeline operation (with per-stage
// timings) to a file. -trace-sample additionally roots a distributed
// trace for that fraction of operations: spans gain trace/span/parent
// IDs linking router fan-out, shard pipelines, WAL commit waits,
// replication shipping and applies, and subscription pushes into one
// tree (merge the per-node span logs with ctxspan), and every resolved
// constraint violation lands in a bounded provenance ring served by the
// protocol's provenance op and /statusz. Incoming requests that already
// carry a trace are always honored regardless of the sample rate.
// -version prints build information and exits.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/apps/rfidmon"
	"ctxres/internal/cluster"
	"ctxres/internal/constraint"
	"ctxres/internal/daemon"
	"ctxres/internal/experiment"
	"ctxres/internal/health"
	"ctxres/internal/middleware"
	"ctxres/internal/simspace"
	"ctxres/internal/situation"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ctxmwd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	d, err := setup(args)
	if err != nil {
		return err
	}
	if d == nil {
		return nil // -version
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// Wait for a shutdown signal or, on a follower with -promote-after,
	// the promotion trigger (nil, so never ready, on every other role); a
	// promoted follower keeps serving as the new leader until signaled.
	select {
	case <-sig:
	case <-d.autoPromote:
		if err := d.promote(); err != nil {
			_ = d.stop()
			return err
		}
		<-sig
	}
	fmt.Println("ctxmwd: shutting down")
	return d.stop()
}

// daemonProc is a ctxmwd of any role, starting or running: the config,
// what every role is built on (application profile, registry, span log,
// provenance ring, serve options), the role's server, the optional ops
// endpoint, and the shutdown steps (server drain, final checkpoint,
// journal close, ops close, span-log flush).
type daemonProc struct {
	config
	srv         *daemon.Server    // nil in router mode, and in follower mode until promotion
	router      *cluster.Router   // set in -router mode
	ops         *daemon.OpsServer // nil without -metrics-addr
	autoPromote <-chan struct{}   // set in -follow mode; closes only with -promote-after
	promote     func() error      // promotes the follower and installs srv

	checker *constraint.Checker
	engine  *situation.Engine
	policy  wal.FsyncPolicy // parsed -fsync; read only with -data-dir
	reg     *telemetry.Registry
	spans   *telemetry.SpanWriter // nil without -span-log
	sink    telemetry.SpanSink    // spans as an interface, so "off" is a nil interface
	prov    *telemetry.ProvenanceRing
	serve   []daemon.Option
	start   time.Time
	strat   string // the strategy's name, set by pipeline for the log lines and /statusz

	view    atomic.Pointer[roleView] // what /healthz and /statusz report right now
	closers []func() error           // shutdown steps, run last-in first-out by stop
}

// roleView is a role's side of the ops endpoint: its name, its health
// (nil = always healthy) and its section of the status document.
type roleView struct {
	role    string
	health  func() error
	section func(m map[string]any)
}

// setup parses flags, builds the middleware (recovering from the WAL when
// -data-dir is set), and starts the daemon. It returns nil (and no error)
// when -version asked only for build information.
//
// Start-up has one shape for every role: config → prelude → role
// constructor, with leaderStack under both the fresh leader and a
// promotion. Each step pushes what it acquires onto d.closers, so a
// later failure unwinds here, once, by the same stop a clean exit runs.
func setup(args []string) (*daemonProc, error) {
	d := &daemonProc{start: time.Now()}
	fs := flag.NewFlagSet("ctxmwd", flag.ContinueOnError)
	d.bind(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if d.version {
		fmt.Println(telemetry.VersionString("ctxmwd"))
		return nil, nil
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	err := d.prelude()
	switch {
	case err != nil:
	case d.routerMode:
		err = d.startRouter()
	case d.follow != "":
		err = d.startFollower()
	default:
		err = d.startLeader()
	}
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

// stop runs the shutdown steps newest first and reports the first failure.
func (d *daemonProc) stop() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

func logf(format string, args ...any) { fmt.Printf("ctxmwd: "+format+"\n", args...) }

// prelude builds what no role differs on: profile, registry, span log,
// provenance ring and the serve options.
func (d *daemonProc) prelude() error {
	var err error
	if d.checker, d.engine, err = profile(d.app); err != nil {
		return err
	}
	if d.constraints != "" {
		f, err := os.Open(d.constraints)
		if err != nil {
			return err
		}
		defer f.Close() // only read
		if d.checker, err = constraint.LoadCheckerFrom(f, nil); err != nil {
			return fmt.Errorf("load %s: %w", d.constraints, err)
		}
	}
	if d.dataDir != "" {
		if d.policy, err = wal.ParseFsyncPolicy(d.fsync); err != nil {
			return err
		}
	}

	// The registry is always on: its per-observation cost is atomic adds,
	// and the stats op serves its snapshot even without -metrics-addr.
	d.reg = telemetry.NewRegistry()

	// The span log is shared by every role: shard daemons write pipeline
	// spans, the router writes routing spans, leaders and followers write
	// replication spans. Tracing uses it as the sink, so -trace-sample
	// requires it.
	if d.spanLog != "" {
		file, err := os.OpenFile(d.spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open span log: %w", err)
		}
		spans := telemetry.NewSpanWriter(file)
		d.spans, d.sink = spans, spans
		d.reg.CounterFunc("ctxres_spans_dropped_total",
			"Spans dropped because the span-log queue was full or its writer had failed.",
			func() float64 { return float64(spans.Drops()) })
		d.closers = append(d.closers, func() error {
			if err := spans.Flush(); err != nil {
				_ = file.Close()
				return fmt.Errorf("flush span log: %w", err)
			}
			return file.Close()
		})
	}

	// The provenance ring is always on for a serving daemon: appends are
	// bounded and only happen on resolutions, and the provenance op
	// answers from it with or without tracing.
	d.prov = telemetry.NewProvenanceRing(0)

	// serve is the one serve-option set every role's serving loop gets —
	// leader, promoted follower, and router alike — so the connection
	// limits hold wherever a client connects. The middleware-only options
	// are inert on a router, and a nil sink leaves tracing off.
	d.serve = []daemon.Option{
		daemon.WithIdleTimeout(d.idle),
		daemon.WithMaxConns(d.maxConns),
		daemon.WithDrainTimeout(d.drain),
		daemon.WithCompactInterval(d.compact),
		daemon.WithSubscriptions(daemon.SubscriptionOptions{
			MaxSubscribers: d.maxSubscribers,
			QueueLen:       d.subQueue,
		}),
		daemon.WithTelemetry(d.reg),
		daemon.WithProvenance(d.prov),
		daemon.WithTracing(d.sink, telemetry.NewSampler(d.traceSample)),
	}
	return nil
}

// serveOps starts the -metrics-addr endpoint, if asked for. /healthz and
// /statusz read the current view on every request, so a promoted
// follower reports as the leader it has become; the keys every role
// shares are added here.
func (d *daemonProc) serveOps() error {
	if d.metricsAddr == "" {
		return nil
	}
	ops, err := daemon.ServeOps(d.metricsAddr, daemon.OpsConfig{
		Registry: d.reg,
		Health: func() error {
			if h := d.view.Load().health; h != nil {
				return h()
			}
			return nil
		},
		Status: func() any {
			v := d.view.Load()
			m := map[string]any{
				"build":         telemetry.BuildInfo(),
				"uptimeSeconds": time.Since(d.start).Seconds(),
				"app":           d.app,
				"role":          v.role,
			}
			if d.spans != nil {
				m["traceSample"] = d.traceSample
				m["spansDropped"] = d.spans.Drops()
			}
			v.section(m)
			return m
		},
	})
	if err != nil {
		return err
	}
	d.ops = ops
	d.closers = append(d.closers, func() error { _ = ops.Close(); return nil })
	fmt.Printf("ctxmwd: metrics on %s\n", ops.Addr())
	return nil
}

// startRouter needs only the checker (for the source-locality analysis
// that decides which constraints scatter); no middleware runs here.
func (d *daemonProc) startRouter() error {
	shards := splitShards(d.shards)
	r, err := cluster.ServeRouter(d.addr, cluster.RouterOptions{
		Shards:      shards,
		Checker:     d.checker,
		Timeout:     10 * time.Second,
		Serve:       d.serve,
		Telemetry:   d.reg,
		SpanSink:    d.sink,
		TraceSample: d.traceSample,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	d.router = r
	d.closers = append(d.closers, func() error { r.Shutdown(); return nil })
	d.view.Store(&roleView{role: "router", section: func(m map[string]any) {
		m["addr"] = r.Addr().String()
		m["router"] = r.Stats()
	}})
	if err := d.serveOps(); err != nil {
		return err
	}
	fmt.Printf("ctxmwd: routing %s application across %d shards on %s (%d spanning constraints)\n",
		d.app, len(shards), r.Addr(), len(r.Spanning()))
	return nil
}

// pipeline resolves the flags only a middleware reads — strategy,
// admission, watchdog, breakers — into its constructor.
func (d *daemonProc) pipeline() (func() *middleware.Middleware, error) {
	strat, err := experiment.NewStrategy(experiment.StrategyName(d.strategy),
		rand.New(rand.NewSource(d.seed)), nil)
	if err != nil {
		return nil, err
	}
	d.strat = strat.Name()
	opts := []middleware.Option{
		middleware.WithSituations(d.engine),
		middleware.WithTelemetry(d.reg),
		middleware.WithProvenance(d.prov),
		middleware.WithSpanSink(d.sink),
	}
	if d.maxPending > 0 || d.degradeAt > 0 {
		opts = append(opts, middleware.WithAdmission(middleware.AdmissionOptions{
			MaxPending: d.maxPending, DegradeAt: d.degradeAt, ResumeAt: d.resumeAt,
		}))
	}
	if d.checkTimeout > 0 {
		opts = append(opts, middleware.WithWatchdog(middleware.WatchdogOptions{
			CheckTimeout: d.checkTimeout,
		}))
	}
	if d.breakerTrip > 0 {
		tracker := health.NewTracker(health.Config{
			TripRatio: d.breakerTrip,
			Window:    d.breakerWindow,
			Cooldown:  d.breakerCooldown,
		})
		tracker.Register(d.reg)
		opts = append(opts, middleware.WithHealth(tracker))
	}
	return func() *middleware.Middleware {
		return middleware.New(d.checker, strat, opts...)
	}, nil
}

// startFollower runs no middleware and serves nothing yet — it tails the
// leader's WAL into -data-dir. promote recovers that log and puts the
// result on the wire through the same leaderStack a fresh leader uses.
func (d *daemonProc) startFollower() error {
	build, err := d.pipeline()
	if err != nil {
		return err
	}
	f, err := cluster.StartFollower(cluster.FollowerOptions{
		Leader:       d.follow,
		Dir:          d.dataDir,
		Fsync:        d.policy,
		PromoteAfter: d.promoteAfter,
		Telemetry:    d.reg,
		SpanSink:     d.sink,
		Logf:         logf,
	})
	if err != nil {
		return err
	}
	d.closers = append(d.closers, f.Stop) // a no-op once Promote has stopped it
	d.autoPromote = f.AutoPromote()
	d.promote = func() error {
		mw, rep, err := f.Promote(build)
		if err != nil {
			return err
		}
		fmt.Printf("ctxmwd: recovered %s: snapshot seq %d, %d commands replayed, %d torn bytes truncated\n",
			d.dataDir, rep.SnapshotSeq, rep.Commands, rep.TornBytes)
		epoch, err := d.leaderStack(mw, "promoted-leader", true)
		if err != nil {
			return fmt.Errorf("promote: %w", err)
		}
		fmt.Printf("ctxmwd: promoted to leader at epoch %d, serving %s application with %s on %s\n",
			epoch, d.app, d.strat, d.srv.Addr())
		return nil
	}
	d.view.Store(&roleView{role: "follower", section: func(m map[string]any) {
		lagRecs, lagBytes := f.Lag()
		leaderLast, leaderDurable := f.LeaderPositions()
		m["leader"] = d.follow
		m["dataDir"] = d.dataDir
		m["lastSeq"] = f.LastSeq()
		m["lagRecords"] = lagRecs
		m["lagBytes"] = lagBytes
		m["leaderLastSeq"] = leaderLast
		m["leaderDurableSeq"] = leaderDurable
		m["leaderEpoch"] = f.LeaderEpoch()
		m["redials"] = f.Resyncs()
		m["acksSent"] = f.AcksSent()
	}})
	if err := d.serveOps(); err != nil {
		return err
	}
	if d.promoteAfter > 0 {
		fmt.Printf("ctxmwd: following %s into %s (auto-promote after %v)\n", d.follow, d.dataDir, d.promoteAfter)
	} else {
		fmt.Printf("ctxmwd: following %s into %s\n", d.follow, d.dataDir)
	}
	return nil
}

// startLeader recovers the middleware from -data-dir (or builds a fresh
// one without it) and serves it.
func (d *daemonProc) startLeader() error {
	build, err := d.pipeline()
	if err != nil {
		return err
	}
	var mw *middleware.Middleware
	if d.dataDir != "" {
		recovered, rep, err := middleware.Recover(d.dataDir, build)
		if err != nil {
			return fmt.Errorf("recover %s: %w", d.dataDir, err)
		}
		mw = recovered
		if rep.SnapshotPath != "" || rep.Commands > 0 {
			fmt.Printf("ctxmwd: recovered %s: snapshot seq %d, %d commands replayed, %d torn bytes truncated\n",
				d.dataDir, rep.SnapshotSeq, rep.Commands, rep.TornBytes)
		}
	} else {
		mw = build()
	}
	if _, err := d.leaderStack(mw, "leader", false); err != nil {
		return err
	}
	if err := d.serveOps(); err != nil {
		return err
	}
	b := telemetry.BuildInfo()
	fmt.Printf("ctxmwd: serving %s application with %s on %s (%s %s/%s)\n",
		d.app, d.strat, d.srv.Addr(), b.GoVersion, b.OS, b.Arch)
	return nil
}

// leaderStack puts mw on the wire as d.srv the one way a fresh leader
// and a promoted follower both do: lease → shipper → wal.Open → epoch
// bump (promotion only; the new epoch is returned) → AttachJournal →
// daemon.Serve with the replication source and the fence, the final
// checkpoint and the drain pushed as shutdown steps, and the leader's
// /healthz and /statusz installed the moment it serves. Without
// -data-dir there is no journal and only the last two happen.
func (d *daemonProc) leaderStack(mw *middleware.Middleware, role string, bumpEpoch bool) (uint64, error) {
	var (
		sh    *cluster.Shipper
		j     *wal.Journal
		lease *cluster.Lease
		epoch uint64
		opts  = d.serve
	)
	if d.dataDir != "" {
		// Any daemon with a journal is a potential leader: the shipper taps
		// the append path and serves replication streams to followers. With
		// -lease-ttl the follower acks flowing back through the shipper also
		// renew the self-fencing lease.
		if d.leaseTTL > 0 {
			lease = cluster.NewLease(cluster.LeaseOptions{TTL: d.leaseTTL, Telemetry: d.reg})
		}
		sh = cluster.NewShipper(cluster.ShipperOptions{
			Dir: d.dataDir, Telemetry: d.reg, Lease: lease, SpanSink: d.sink,
		})
		var err error
		j, err = wal.Open(wal.Options{
			Dir:          d.dataDir,
			Fsync:        d.policy,
			FsyncEvery:   d.fsyncEvery,
			GroupCommit:  d.groupCommit,
			CommitDelay:  d.commitDelay,
			CommitBatch:  d.commitBatch,
			Observer:     middleware.NewWALObserver(d.reg),
			Ship:         sh.Tap,
			ShipSnapshot: sh.TapSnapshot,
		})
		if err != nil {
			return 0, fmt.Errorf("open wal %s: %w", d.dataDir, err)
		}
		if bumpEpoch {
			// Taking over is an epoch bump: records appended from here on
			// carry the new epoch, and the deposed leader's stream — still
			// stamped with the old one — is refused by anyone who saw ours.
			if epoch, err = j.AdvanceEpoch(); err != nil {
				_ = j.Close()
				return 0, fmt.Errorf("advance epoch: %w", err)
			}
		}
		sh.Attach(j)
		if err := mw.AttachJournal(j); err != nil {
			_ = j.Close()
			return 0, err
		}
		opts = append(opts,
			daemon.WithSnapshotInterval(d.snapshot),
			daemon.WithReplicationSource(sh),
			daemon.WithFence(cluster.NewFence(j, lease)))
	}
	srv, err := daemon.Serve(d.addr, mw, d.engine, opts...)
	if err != nil {
		if j != nil {
			_ = mw.CloseJournal()
		}
		return 0, err
	}
	d.srv = srv
	if j != nil {
		d.closers = append(d.closers, func() error {
			if err := mw.Checkpoint(); err != nil {
				_ = mw.CloseJournal()
				return fmt.Errorf("final checkpoint: %w", err)
			}
			return mw.CloseJournal()
		})
	}
	d.closers = append(d.closers, func() error { srv.Shutdown(); return nil })
	d.view.Store(&roleView{role: role, health: srv.Health, section: func(m map[string]any) {
		m["addr"] = srv.Addr().String()
		m["strategy"] = d.strat
		m["dataDir"] = d.dataDir
		m["fsync"] = d.fsync
		m["poolContexts"] = mw.Pool().Len()
		m["sigmaSize"] = mw.SigmaSize()
		m["middleware"] = mw.Stats()
		m["daemon"] = srv.Stats()
		m["provenance"] = map[string]any{"total": d.prov.Total()}
		if j != nil {
			m["replication"] = sh.Stats()
			m["epoch"] = j.Epoch()
		}
		if lease != nil {
			m["lease"] = map[string]any{
				"valid":    lease.Valid(),
				"ttl":      lease.TTL().String(),
				"renewals": lease.Renewals(),
				"fences":   lease.Fences(),
			}
		}
	}})
	return epoch, nil
}

func profile(app string) (*constraint.Checker, *situation.Engine, error) {
	switch app {
	case "callforward":
		floor := simspace.OfficeFloor()
		return callforward.Checker(floor), callforward.Engine(floor), nil
	case "rfid":
		return rfidmon.Checker(), rfidmon.Engine(), nil
	default:
		return nil, nil, fmt.Errorf("unknown app profile %q (want callforward or rfid)", app)
	}
}

// Command ctxmwd runs the context middleware as a network daemon: context
// sources and applications connect over TCP and speak the line-delimited
// JSON protocol of internal/daemon.
//
//	ctxmwd -addr 127.0.0.1:7654 -app callforward -strategy D-BAD
//
// -app selects the bundled constraint/situation sets (callforward, rfid);
// -strategy selects the resolution strategy (D-BAD, D-LAT, D-ALL, D-RAND,
// OPT-R); -parallelism switches consistency checking onto the parallel
// binding evaluator (as in ctxbench); -idle-timeout, -max-conns, and
// -drain-timeout tune the serving path.
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
	"strings"
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
	if d.autoPromote != nil {
		// Follower mode: wait for either a shutdown signal or the
		// promotion trigger; a promoted follower keeps serving as the new
		// leader until signaled.
		select {
		case <-sig:
		case <-d.autoPromote:
			if err := d.promote(); err != nil {
				_ = d.stop()
				return err
			}
			<-sig
		}
	} else {
		<-sig
	}
	fmt.Println("ctxmwd: shutting down")
	if d.srv != nil {
		d.srv.Shutdown()
	}
	if d.router != nil {
		d.router.Shutdown()
	}
	return d.stop()
}

// daemonProc is a running daemon: the protocol server, the optional ops
// endpoint, the process-wide telemetry registry, and the shutdown steps
// to run after the server has drained (final checkpoint, journal close,
// span-log flush, ops close).
type daemonProc struct {
	srv         *daemon.Server    // nil in router mode, and in follower mode until promotion
	router      *cluster.Router   // set in -router mode
	ops         *daemon.OpsServer // nil without -metrics-addr
	reg         *telemetry.Registry
	autoPromote <-chan struct{} // set in -follow mode with -promote-after
	promote     func() error    // promotes the follower and installs srv
	stop        func() error
}

// setup parses flags, builds the middleware (recovering from the WAL when
// -data-dir is set), and starts the daemon. It returns nil (and no error)
// when -version asked only for build information.
func setup(args []string) (*daemonProc, error) {
	fs := flag.NewFlagSet("ctxmwd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7654", "listen address")
		app      = fs.String("app", "callforward", "application profile: callforward or rfid")
		strategy = fs.String("strategy", "D-BAD", "resolution strategy: D-BAD, D-LAT, D-ALL, D-RAND, OPT-R")
		seed     = fs.Int64("seed", 1, "seed for randomized strategies")
		constrs  = fs.String("constraints", "", "load the constraint set from this file instead of the app profile")
		par      = fs.Int("parallelism", 0, "checker workers per consistency check "+
			"(<=1 serial, -1 = GOMAXPROCS)")
		idle = fs.Duration("idle-timeout", daemon.DefaultIdleTimeout,
			"close connections idle longer than this (0 disables)")
		maxConns = fs.Int("max-conns", daemon.DefaultMaxConns,
			"concurrent connection cap (0 = unlimited)")
		drain = fs.Duration("drain-timeout", daemon.DefaultDrainTimeout,
			"how long shutdown waits for in-flight requests")
		dataDir = fs.String("data-dir", "",
			"write-ahead log directory; enables durability and crash recovery")
		fsyncMode = fs.String("fsync", "interval",
			"WAL sync policy: always, interval, or never")
		fsyncEvery = fs.Duration("fsync-interval", wal.DefaultFsyncEvery,
			"max time between WAL syncs under -fsync interval")
		groupCommit = fs.Bool("group-commit", false,
			"coalesce concurrent WAL commits into shared fsyncs (needs -data-dir; acks release only after the shared fsync)")
		commitDelay = fs.Duration("commit-delay", 0,
			"max time a group commit leader waits for more appends before fsyncing (0 = fsync immediately; needs -group-commit)")
		commitBatch = fs.Int("commit-batch", 0,
			"pending appends at which a delayed group commit fsyncs early (0 = default; needs -group-commit)")
		snapEvery = fs.Duration("snapshot-interval", time.Minute,
			"how often to checkpoint the WAL (0 disables; needs -data-dir)")
		compactEvery = fs.Duration("compact-interval", time.Minute,
			"how often to compact the context pool (0 disables)")
		metricsAddr = fs.String("metrics-addr", "",
			"serve /metrics, /healthz, /statusz, and /debug/pprof on this address (empty disables)")
		spanLog = fs.String("span-log", "",
			"append per-operation pipeline spans as JSON lines to this file (empty disables)")
		traceSample = fs.Float64("trace-sample", 0,
			"fraction of operations that root a distributed trace, in [0,1] "+
				"(needs -span-log; requests already carrying a trace are always honored)")
		maxPending = fs.Int("max-pending", 0,
			"submit queue cap; excess submissions are shed as overloaded (0 disables)")
		degradeAt = fs.Int("degrade-at", 0,
			"pending submissions at which consistency checks are deferred (0 disables degraded mode)")
		resumeAt = fs.Int("resume-at", 0,
			"pending submissions at or below which deferred checks catch up (0 = degrade-at - 1)")
		checkTimeout = fs.Duration("check-timeout", 0,
			"watchdog timeout per consistency check; stuck or panicking checks abort typed (0 disables)")
		breakerTrip = fs.Float64("breaker-trip", 0,
			"per-source bad ratio that trips the circuit breaker, in (0,1] (0 disables breakers)")
		breakerWindow = fs.Int("breaker-window", 0,
			"per-source sliding window of recent outcomes (0 = default)")
		breakerCooldown = fs.Duration("breaker-cooldown", 0,
			"logical time an open breaker waits before half-open probes (0 = default)")
		maxSubscribers = fs.Int("max-subscribers", daemon.DefaultMaxSubscribers,
			"situation subscriptions cap across all connections (-1 = unlimited)")
		subQueue = fs.Int("sub-queue", daemon.DefaultSubQueueLen,
			"per-subscriber event queue length; overflowing consumers are shed as subscriber-lagged")
		routerMode = fs.Bool("router", false,
			"run as a shard router gateway across -shards instead of a daemon")
		shardList = fs.String("shards", "",
			"comma-separated shard daemon addresses for -router")
		follow = fs.String("follow", "",
			"run as a replication follower of this leader address (needs -data-dir)")
		promoteAfter = fs.Duration("promote-after", 0,
			"follower promotes itself to leader after this long without a reachable leader (0 = never; needs -follow)")
		leaseTTL = fs.Duration("lease-ttl", 0,
			"leader self-fences (sheds writes as stale-leader) after this long without follower acks "+
				"(0 disables; needs -data-dir; must be below the followers' -promote-after)")
		version = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *version {
		fmt.Println(telemetry.VersionString("ctxmwd"))
		return nil, nil
	}
	if err := validateTunings(tunings{
		idle: *idle, drain: *drain, snapshot: *snapEvery, compact: *compactEvery,
		maxPending: *maxPending, degradeAt: *degradeAt, resumeAt: *resumeAt,
		checkTimeout: *checkTimeout, breakerTrip: *breakerTrip,
		breakerWindow: *breakerWindow, breakerCooldown: *breakerCooldown,
		groupCommit: *groupCommit, commitDelay: *commitDelay, commitBatch: *commitBatch,
		dataDir: *dataDir, maxSubscribers: *maxSubscribers, subQueue: *subQueue,
		router: *routerMode, shards: *shardList, follow: *follow, promoteAfter: *promoteAfter,
		leaseTTL: *leaseTTL, traceSample: *traceSample, spanLog: *spanLog,
	}); err != nil {
		return nil, err
	}

	checker, engine, err := profile(*app)
	if err != nil {
		return nil, err
	}
	if *constrs != "" {
		f, err := os.Open(*constrs)
		if err != nil {
			return nil, err
		}
		loaded, err := constraint.LoadCheckerFrom(f, nil)
		closeErr := f.Close()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", *constrs, err)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		checker = loaded
	}

	// The registry is always on: its per-observation cost is atomic adds,
	// and the stats op serves its snapshot even without -metrics-addr.
	reg := telemetry.NewRegistry()

	// The span log is shared by every role: shard daemons write pipeline
	// spans, the router writes routing spans, leaders and followers write
	// replication spans. Tracing uses it as the sink, so -trace-sample
	// requires it.
	var spans *telemetry.SpanWriter
	var spanFile *os.File
	if *spanLog != "" {
		spanFile, err = os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open span log: %w", err)
		}
		spans = telemetry.NewSpanWriter(spanFile)
		reg.CounterFunc("ctxres_spans_dropped_total",
			"Spans dropped because the span-log queue was full or its writer had failed.",
			func() float64 { return float64(spans.Drops()) })
	}
	closeSpans := func() error {
		if spans == nil {
			return nil
		}
		if err := spans.Flush(); err != nil {
			_ = spanFile.Close()
			return fmt.Errorf("flush span log: %w", err)
		}
		return spanFile.Close()
	}

	// The provenance ring is always on for a serving daemon: appends are
	// bounded and only happen on resolutions, and the provenance op
	// answers from it with or without tracing.
	prov := telemetry.NewProvenanceRing(0)

	// baseServe is the one serve-option set every role's serving loop gets
	// — leader, promoted follower, and router alike — so the connection
	// limits hold wherever a client connects. The snapshot interval and
	// replication source vary per path; the middleware-only options are
	// inert on a router.
	baseServe := []daemon.Option{
		daemon.WithIdleTimeout(*idle),
		daemon.WithMaxConns(*maxConns),
		daemon.WithDrainTimeout(*drain),
		daemon.WithCompactInterval(*compactEvery),
		daemon.WithSubscriptions(daemon.SubscriptionOptions{
			MaxSubscribers: *maxSubscribers,
			QueueLen:       *subQueue,
		}),
		daemon.WithTelemetry(reg),
		daemon.WithProvenance(prov),
	}
	if spans != nil {
		baseServe = append(baseServe,
			daemon.WithTracing(spans, telemetry.NewSampler(*traceSample)))
	}

	// Router mode needs only the checker (for the source-locality analysis
	// that decides which constraints scatter); no middleware runs here.
	if *routerMode {
		ropt := cluster.RouterOptions{
			Shards:    splitShards(*shardList),
			Checker:   checker,
			Timeout:   10 * time.Second,
			Serve:     baseServe,
			Telemetry: reg,
			Logf: func(format string, args ...any) {
				fmt.Printf("ctxmwd: "+format+"\n", args...)
			},
		}
		if spans != nil {
			ropt.SpanSink = spans
			ropt.TraceSample = *traceSample
		}
		r, err := cluster.ServeRouter(*addr, ropt)
		if err != nil {
			_ = closeSpans()
			return nil, err
		}
		d := &daemonProc{router: r, reg: reg}
		start := time.Now()
		if *metricsAddr != "" {
			status := func() any {
				m := map[string]any{
					"build":         telemetry.BuildInfo(),
					"uptimeSeconds": time.Since(start).Seconds(),
					"addr":          r.Addr().String(),
					"app":           *app,
					"role":          "router",
					"router":        r.Stats(),
				}
				if spans != nil {
					m["traceSample"] = *traceSample
					m["spansDropped"] = spans.Drops()
				}
				return m
			}
			ops, err := daemon.ServeOps(*metricsAddr, daemon.OpsConfig{
				Registry: reg,
				Status:   status,
			})
			if err != nil {
				r.Shutdown()
				_ = closeSpans()
				return nil, err
			}
			d.ops = ops
			fmt.Printf("ctxmwd: metrics on %s\n", ops.Addr())
		}
		d.stop = func() error {
			if d.ops != nil {
				_ = d.ops.Close()
			}
			return closeSpans()
		}
		fmt.Printf("ctxmwd: routing %s application across %d shards on %s (%d spanning constraints)\n",
			*app, len(splitShards(*shardList)), r.Addr(), len(r.Spanning()))
		return d, nil
	}

	strat, err := experiment.NewStrategy(experiment.StrategyName(*strategy),
		rand.New(rand.NewSource(*seed)), nil)
	if err != nil {
		return nil, err
	}
	parallelism := *par
	if parallelism < 0 {
		parallelism = constraint.DefaultParallelism()
	}

	mwOpts := []middleware.Option{
		middleware.WithSituations(engine),
		middleware.WithCheckerOptions(middleware.CheckerOptions{Parallelism: parallelism}),
		middleware.WithTelemetry(reg),
		middleware.WithProvenance(prov),
	}
	if spans != nil {
		mwOpts = append(mwOpts, middleware.WithSpanSink(spans))
	}
	if *maxPending > 0 || *degradeAt > 0 {
		mwOpts = append(mwOpts, middleware.WithAdmission(middleware.AdmissionOptions{
			MaxPending: *maxPending, DegradeAt: *degradeAt, ResumeAt: *resumeAt,
		}))
	}
	if *checkTimeout > 0 {
		mwOpts = append(mwOpts, middleware.WithWatchdog(middleware.WatchdogOptions{
			CheckTimeout: *checkTimeout,
		}))
	}
	if *breakerTrip > 0 {
		tracker := health.NewTracker(health.Config{
			TripRatio: *breakerTrip,
			Window:    *breakerWindow,
			Cooldown:  *breakerCooldown,
		})
		tracker.Register(reg)
		mwOpts = append(mwOpts, middleware.WithHealth(tracker))
	}
	build := func() *middleware.Middleware {
		return middleware.New(checker, strat, mwOpts...)
	}

	// Follower mode: no middleware and no serving yet — tail the leader's
	// WAL into -data-dir. The promote closure builds the full leader stack
	// (recovery, journal with shipping, protocol server) on demand.
	if *follow != "" {
		policy, err := wal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			_ = closeSpans()
			return nil, err
		}
		fopt := cluster.FollowerOptions{
			Leader:       *follow,
			Dir:          *dataDir,
			Fsync:        policy,
			PromoteAfter: *promoteAfter,
			Telemetry:    reg,
			Logf: func(format string, args ...any) {
				fmt.Printf("ctxmwd: "+format+"\n", args...)
			},
		}
		if spans != nil {
			fopt.SpanSink = spans
		}
		f, err := cluster.StartFollower(fopt)
		if err != nil {
			_ = closeSpans()
			return nil, err
		}
		d := &daemonProc{reg: reg}
		if *promoteAfter > 0 {
			d.autoPromote = f.AutoPromote()
		}
		var promotedShutdown func() error
		var promotedEpoch atomic.Uint64
		d.promote = func() error {
			mw, rep, err := f.Promote(build)
			if err != nil {
				return err
			}
			fmt.Printf("ctxmwd: recovered %s: snapshot seq %d, %d commands replayed, %d torn bytes truncated\n",
				*dataDir, rep.SnapshotSeq, rep.Commands, rep.TornBytes)
			var lease *cluster.Lease
			if *leaseTTL > 0 {
				lease = cluster.NewLease(cluster.LeaseOptions{TTL: *leaseTTL, Telemetry: reg})
			}
			shOpt := cluster.ShipperOptions{Dir: *dataDir, Telemetry: reg, Lease: lease}
			if spans != nil {
				shOpt.SpanSink = spans
			}
			sh := cluster.NewShipper(shOpt)
			j, err := wal.Open(wal.Options{
				Dir:          *dataDir,
				Fsync:        policy,
				FsyncEvery:   *fsyncEvery,
				GroupCommit:  *groupCommit,
				CommitDelay:  *commitDelay,
				CommitBatch:  *commitBatch,
				Observer:     middleware.NewWALObserver(reg),
				Ship:         sh.Tap,
				ShipSnapshot: sh.TapSnapshot,
			})
			if err != nil {
				return fmt.Errorf("promote: open wal %s: %w", *dataDir, err)
			}
			// Taking over is an epoch bump: records appended from here on
			// carry the new epoch, and the deposed leader's stream — still
			// stamped with the old one — is refused by anyone who saw ours.
			epoch, err := j.AdvanceEpoch()
			if err != nil {
				_ = j.Close()
				return fmt.Errorf("promote: advance epoch: %w", err)
			}
			sh.Attach(j)
			if err := mw.AttachJournal(j); err != nil {
				_ = j.Close()
				return fmt.Errorf("promote: %w", err)
			}
			srv, err := daemon.Serve(*addr, mw, engine, append(baseServe,
				daemon.WithSnapshotInterval(*snapEvery),
				daemon.WithReplicationSource(sh),
				daemon.WithFence(cluster.NewFence(j, lease)))...)
			if err != nil {
				_ = mw.CloseJournal()
				return fmt.Errorf("promote: %w", err)
			}
			d.srv = srv
			promotedEpoch.Store(epoch)
			promotedShutdown = func() error {
				if err := mw.Checkpoint(); err != nil {
					_ = mw.CloseJournal()
					return fmt.Errorf("final checkpoint: %w", err)
				}
				return mw.CloseJournal()
			}
			fmt.Printf("ctxmwd: promoted to leader at epoch %d, serving %s application with %s on %s\n",
				epoch, *app, strat.Name(), srv.Addr())
			return nil
		}
		start := time.Now()
		if *metricsAddr != "" {
			status := func() any {
				lagRecs, lagBytes := f.Lag()
				leaderLast, leaderDurable := f.LeaderPositions()
				m := map[string]any{
					"build":            telemetry.BuildInfo(),
					"uptimeSeconds":    time.Since(start).Seconds(),
					"app":              *app,
					"role":             "follower",
					"leader":           *follow,
					"dataDir":          *dataDir,
					"lastSeq":          f.LastSeq(),
					"lagRecords":       lagRecs,
					"lagBytes":         lagBytes,
					"leaderLastSeq":    leaderLast,
					"leaderDurableSeq": leaderDurable,
					"leaderEpoch":      f.LeaderEpoch(),
					"redials":          f.Resyncs(),
					"acksSent":         f.AcksSent(),
				}
				if epoch := promotedEpoch.Load(); epoch > 0 {
					m["role"] = "promoted-leader"
					m["epoch"] = epoch
				}
				if spans != nil {
					m["traceSample"] = *traceSample
					m["spansDropped"] = spans.Drops()
				}
				return m
			}
			ops, err := daemon.ServeOps(*metricsAddr, daemon.OpsConfig{
				Registry: reg,
				Status:   status,
			})
			if err != nil {
				_ = f.Stop()
				_ = closeSpans()
				return nil, err
			}
			d.ops = ops
			fmt.Printf("ctxmwd: metrics on %s\n", ops.Addr())
		}
		d.stop = func() error {
			if d.ops != nil {
				_ = d.ops.Close()
			}
			durErr := f.Stop() // no-op after promotion (Promote already stopped it)
			if promotedShutdown != nil {
				durErr = promotedShutdown()
			}
			if err := closeSpans(); err != nil && durErr == nil {
				durErr = err
			}
			return durErr
		}
		if *promoteAfter > 0 {
			fmt.Printf("ctxmwd: following %s into %s (auto-promote after %v)\n", *follow, *dataDir, *promoteAfter)
		} else {
			fmt.Printf("ctxmwd: following %s into %s\n", *follow, *dataDir)
		}
		return d, nil
	}

	var mw *middleware.Middleware
	var shipper *cluster.Shipper
	var journal *wal.Journal
	var lease *cluster.Lease
	durShutdown := func() error { return nil }
	snapInterval := time.Duration(0)
	serveOpts := baseServe
	if *dataDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			_ = closeSpans()
			return nil, err
		}
		recovered, rep, err := middleware.Recover(*dataDir, build)
		if err != nil {
			_ = closeSpans()
			return nil, fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		mw = recovered
		if rep.SnapshotPath != "" || rep.Commands > 0 {
			fmt.Printf("ctxmwd: recovered %s: snapshot seq %d, %d commands replayed, %d torn bytes truncated\n",
				*dataDir, rep.SnapshotSeq, rep.Commands, rep.TornBytes)
		}
		// Any daemon with a journal is a potential leader: the shipper taps
		// the append path and serves replication streams to followers. With
		// -lease-ttl the follower acks flowing back through the shipper also
		// renew the self-fencing lease.
		if *leaseTTL > 0 {
			lease = cluster.NewLease(cluster.LeaseOptions{TTL: *leaseTTL, Telemetry: reg})
		}
		shOpt := cluster.ShipperOptions{Dir: *dataDir, Telemetry: reg, Lease: lease}
		if spans != nil {
			shOpt.SpanSink = spans
		}
		sh := cluster.NewShipper(shOpt)
		shipper = sh
		j, err := wal.Open(wal.Options{
			Dir:          *dataDir,
			Fsync:        policy,
			FsyncEvery:   *fsyncEvery,
			GroupCommit:  *groupCommit,
			CommitDelay:  *commitDelay,
			CommitBatch:  *commitBatch,
			Observer:     middleware.NewWALObserver(reg),
			Ship:         sh.Tap,
			ShipSnapshot: sh.TapSnapshot,
		})
		if err != nil {
			_ = closeSpans()
			return nil, fmt.Errorf("open wal %s: %w", *dataDir, err)
		}
		sh.Attach(j)
		if err := mw.AttachJournal(j); err != nil {
			_ = j.Close()
			_ = closeSpans()
			return nil, err
		}
		journal = j
		snapInterval = *snapEvery
		serveOpts = append(serveOpts,
			daemon.WithReplicationSource(sh),
			daemon.WithFence(cluster.NewFence(j, lease)))
		durShutdown = func() error {
			if err := mw.Checkpoint(); err != nil {
				_ = mw.CloseJournal()
				return fmt.Errorf("final checkpoint: %w", err)
			}
			return mw.CloseJournal()
		}
	} else {
		mw = build()
	}

	srv, err := daemon.Serve(*addr, mw, engine,
		append(serveOpts, daemon.WithSnapshotInterval(snapInterval))...)
	if err != nil {
		if *dataDir != "" {
			_ = mw.CloseJournal()
		}
		_ = closeSpans()
		return nil, err
	}

	d := &daemonProc{srv: srv, reg: reg}
	start := time.Now()
	if *metricsAddr != "" {
		status := func() any {
			m := map[string]any{
				"build":         telemetry.BuildInfo(),
				"uptimeSeconds": time.Since(start).Seconds(),
				"addr":          srv.Addr().String(),
				"app":           *app,
				"strategy":      strat.Name(),
				"parallelism":   parallelism,
				"dataDir":       *dataDir,
				"fsync":         *fsyncMode,
				"poolContexts":  mw.Pool().Len(),
				"sigmaSize":     mw.SigmaSize(),
				"middleware":    mw.Stats(),
				"daemon":        srv.Stats(),
				"provenance":    map[string]any{"total": prov.Total()},
			}
			if shipper != nil {
				m["replication"] = shipper.Stats()
			}
			if journal != nil {
				m["epoch"] = journal.Epoch()
			}
			if lease != nil {
				m["lease"] = map[string]any{
					"valid":    lease.Valid(),
					"ttl":      lease.TTL().String(),
					"renewals": lease.Renewals(),
					"fences":   lease.Fences(),
				}
			}
			if spans != nil {
				m["traceSample"] = *traceSample
				m["spansDropped"] = spans.Drops()
			}
			return m
		}
		ops, err := daemon.ServeOps(*metricsAddr, daemon.OpsConfig{
			Registry: reg,
			Health:   srv.Health,
			Status:   status,
		})
		if err != nil {
			srv.Shutdown()
			_ = durShutdown()
			_ = closeSpans()
			return nil, err
		}
		d.ops = ops
		fmt.Printf("ctxmwd: metrics on %s\n", ops.Addr())
	}
	d.stop = func() error {
		if d.ops != nil {
			_ = d.ops.Close()
		}
		durErr := durShutdown()
		if err := closeSpans(); err != nil && durErr == nil {
			durErr = err
		}
		return durErr
	}

	b := telemetry.BuildInfo()
	fmt.Printf("ctxmwd: serving %s application with %s on %s (parallelism %d, %s %s/%s)\n",
		*app, strat.Name(), srv.Addr(), parallelism, b.GoVersion, b.OS, b.Arch)
	return d, nil
}

// tunings collects the numeric flags that validateTunings vets before the
// daemon starts.
type tunings struct {
	idle, drain, snapshot, compact  time.Duration
	maxPending, degradeAt, resumeAt int
	checkTimeout                    time.Duration
	breakerTrip                     float64
	breakerWindow                   int
	breakerCooldown                 time.Duration
	groupCommit                     bool
	commitDelay                     time.Duration
	commitBatch                     int
	dataDir                         string
	maxSubscribers, subQueue        int
	router                          bool
	shards                          string
	follow                          string
	promoteAfter                    time.Duration
	leaseTTL                        time.Duration
	traceSample                     float64
	spanLog                         string
}

// validateTunings rejects flag values that would silently misconfigure
// the daemon: a negative interval is always a typo, and a zero
// -drain-timeout would make every shutdown force-close in-flight
// requests. Zero stays valid where it is the documented "disabled"
// setting.
func validateTunings(t tunings) error {
	switch {
	case t.idle < 0:
		return fmt.Errorf("-idle-timeout must be >= 0 (0 disables), got %v", t.idle)
	case t.drain <= 0:
		return fmt.Errorf("-drain-timeout must be > 0, got %v", t.drain)
	case t.snapshot < 0:
		return fmt.Errorf("-snapshot-interval must be >= 0 (0 disables), got %v", t.snapshot)
	case t.compact < 0:
		return fmt.Errorf("-compact-interval must be >= 0 (0 disables), got %v", t.compact)
	case t.maxPending < 0:
		return fmt.Errorf("-max-pending must be >= 0 (0 disables), got %d", t.maxPending)
	case t.degradeAt < 0:
		return fmt.Errorf("-degrade-at must be >= 0 (0 disables), got %d", t.degradeAt)
	case t.resumeAt < 0:
		return fmt.Errorf("-resume-at must be >= 0, got %d", t.resumeAt)
	case t.resumeAt > 0 && t.degradeAt > 0 && t.resumeAt >= t.degradeAt:
		return fmt.Errorf("-resume-at (%d) must be below -degrade-at (%d)", t.resumeAt, t.degradeAt)
	case t.checkTimeout < 0:
		return fmt.Errorf("-check-timeout must be >= 0 (0 disables), got %v", t.checkTimeout)
	case t.breakerTrip < 0 || t.breakerTrip > 1:
		return fmt.Errorf("-breaker-trip must be in [0,1] (0 disables), got %g", t.breakerTrip)
	case t.breakerWindow < 0:
		return fmt.Errorf("-breaker-window must be >= 0 (0 = default), got %d", t.breakerWindow)
	case t.breakerCooldown < 0:
		return fmt.Errorf("-breaker-cooldown must be >= 0 (0 = default), got %v", t.breakerCooldown)
	case t.commitDelay < 0:
		return fmt.Errorf("-commit-delay must be >= 0 (0 fsyncs immediately), got %v", t.commitDelay)
	case t.commitBatch < 0:
		return fmt.Errorf("-commit-batch must be >= 0 (0 = default), got %d", t.commitBatch)
	case t.groupCommit && t.dataDir == "":
		return fmt.Errorf("-group-commit needs -data-dir (there is no journal to commit without one)")
	case !t.groupCommit && (t.commitDelay > 0 || t.commitBatch > 0):
		return fmt.Errorf("-commit-delay and -commit-batch need -group-commit")
	case t.maxSubscribers == 0 || t.maxSubscribers < -1:
		return fmt.Errorf("-max-subscribers must be > 0 or -1 (unlimited), got %d", t.maxSubscribers)
	case t.subQueue <= 0:
		return fmt.Errorf("-sub-queue must be > 0, got %d", t.subQueue)
	case t.router && t.shards == "":
		return fmt.Errorf("-router needs -shards (there is nothing to route to without them)")
	case !t.router && t.shards != "":
		return fmt.Errorf("-shards needs -router")
	case t.router && t.follow != "":
		return fmt.Errorf("-router and -follow are mutually exclusive roles")
	case t.router && t.dataDir != "":
		return fmt.Errorf("-router keeps no state; -data-dir belongs on the shard daemons")
	case t.follow != "" && t.dataDir == "":
		return fmt.Errorf("-follow needs -data-dir (the replicated log must land somewhere)")
	case t.promoteAfter < 0:
		return fmt.Errorf("-promote-after must be >= 0 (0 disables), got %v", t.promoteAfter)
	case t.promoteAfter > 0 && t.follow == "":
		return fmt.Errorf("-promote-after needs -follow")
	case t.leaseTTL < 0:
		return fmt.Errorf("-lease-ttl must be >= 0 (0 disables), got %v", t.leaseTTL)
	case t.leaseTTL > 0 && t.dataDir == "" && !t.router:
		return fmt.Errorf("-lease-ttl needs -data-dir (only a journaled leader can fence itself)")
	case t.router && t.leaseTTL > 0:
		return fmt.Errorf("-lease-ttl belongs on the shard daemons; the router holds no lease")
	case t.leaseTTL > 0 && t.promoteAfter > 0 && t.leaseTTL >= t.promoteAfter:
		return fmt.Errorf("-lease-ttl (%v) must be below -promote-after (%v) so the old leader sheds before the promoted one serves",
			t.leaseTTL, t.promoteAfter)
	case t.traceSample < 0 || t.traceSample > 1:
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", t.traceSample)
	case t.traceSample > 0 && t.spanLog == "":
		return fmt.Errorf("-trace-sample needs -span-log (traced spans have nowhere to go without it)")
	}
	if t.router {
		// Replica-set syntax ("primary|replica,...") is vetted here so a
		// typo fails at startup, not at the first probe.
		if _, err := cluster.ParseShardSpecs(splitShards(t.shards)); err != nil {
			return fmt.Errorf("-shards: %w", err)
		}
	}
	return nil
}

// splitShards parses the -shards list, dropping empty elements.
func splitShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
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

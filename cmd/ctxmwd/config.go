package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"ctxres/internal/cluster"
	"ctxres/internal/daemon"
	"ctxres/internal/wal"
)

// config is every flag, bound directly: bind registers them, validate
// vets them, and the role constructors read the fields.
type config struct {
	addr, app, strategy      string
	seed                     int64
	constraints              string
	idle, drain              time.Duration
	maxConns                 int
	dataDir, fsync           string
	fsyncEvery               time.Duration
	groupCommit              bool
	commitDelay              time.Duration
	commitBatch              int
	snapshot, compact        time.Duration
	metricsAddr, spanLog     string
	traceSample              float64
	maxPending               int
	degradeAt, resumeAt      int
	checkTimeout             time.Duration
	breakerTrip              float64
	breakerWindow            int
	breakerCooldown          time.Duration
	maxSubscribers, subQueue int
	routerMode               bool
	shards, follow           string
	promoteAfter, leaseTTL   time.Duration
	version                  bool
}

func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7654", "listen address")
	fs.StringVar(&c.app, "app", "callforward", "application profile: callforward or rfid")
	fs.StringVar(&c.strategy, "strategy", "D-BAD", "resolution strategy: D-BAD, D-LAT, D-ALL, D-RAND, OPT-R")
	fs.Int64Var(&c.seed, "seed", 1, "seed for randomized strategies")
	fs.StringVar(&c.constraints, "constraints", "", "load the constraint set from this file instead of the app profile")
	fs.DurationVar(&c.idle, "idle-timeout", daemon.DefaultIdleTimeout,
		"close connections idle longer than this (0 disables)")
	fs.IntVar(&c.maxConns, "max-conns", daemon.DefaultMaxConns,
		"concurrent connection cap (0 = unlimited)")
	fs.DurationVar(&c.drain, "drain-timeout", daemon.DefaultDrainTimeout,
		"how long shutdown waits for in-flight requests")
	fs.StringVar(&c.dataDir, "data-dir", "",
		"write-ahead log directory; enables durability and crash recovery")
	fs.StringVar(&c.fsync, "fsync", "interval",
		"WAL sync policy: always, interval, or never")
	fs.DurationVar(&c.fsyncEvery, "fsync-interval", wal.DefaultFsyncEvery,
		"max time between WAL syncs under -fsync interval")
	fs.BoolVar(&c.groupCommit, "group-commit", false,
		"coalesce concurrent WAL commits into shared fsyncs (needs -data-dir; acks release only after the shared fsync)")
	fs.DurationVar(&c.commitDelay, "commit-delay", 0,
		"max time a group commit leader waits for more appends before fsyncing (0 = fsync immediately; needs -group-commit)")
	fs.IntVar(&c.commitBatch, "commit-batch", 0,
		"pending appends at which a delayed group commit fsyncs early (0 = default; needs -group-commit)")
	fs.DurationVar(&c.snapshot, "snapshot-interval", time.Minute,
		"how often to checkpoint the WAL (0 disables; needs -data-dir)")
	fs.DurationVar(&c.compact, "compact-interval", time.Minute,
		"how often to compact the context pool (0 disables)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "",
		"serve /metrics, /healthz, /statusz, and /debug/pprof on this address (empty disables)")
	fs.StringVar(&c.spanLog, "span-log", "",
		"append per-operation pipeline spans as JSON lines to this file (empty disables)")
	fs.Float64Var(&c.traceSample, "trace-sample", 0,
		"fraction of operations that root a distributed trace, in [0,1] "+
			"(needs -span-log; requests already carrying a trace are always honored)")
	fs.IntVar(&c.maxPending, "max-pending", 0,
		"submit queue cap; excess submissions are shed as overloaded (0 disables)")
	fs.IntVar(&c.degradeAt, "degrade-at", 0,
		"pending submissions at which consistency checks are deferred (0 disables degraded mode)")
	fs.IntVar(&c.resumeAt, "resume-at", 0,
		"pending submissions at or below which deferred checks catch up (0 = degrade-at - 1)")
	fs.DurationVar(&c.checkTimeout, "check-timeout", 0,
		"watchdog timeout per consistency check; stuck or panicking checks abort typed (0 disables)")
	fs.Float64Var(&c.breakerTrip, "breaker-trip", 0,
		"per-source bad ratio that trips the circuit breaker, in (0,1] (0 disables breakers)")
	fs.IntVar(&c.breakerWindow, "breaker-window", 0,
		"per-source sliding window of recent outcomes (0 = default)")
	fs.DurationVar(&c.breakerCooldown, "breaker-cooldown", 0,
		"logical time an open breaker waits before half-open probes (0 = default)")
	fs.IntVar(&c.maxSubscribers, "max-subscribers", daemon.DefaultMaxSubscribers,
		"situation subscriptions cap across all connections (-1 = unlimited)")
	fs.IntVar(&c.subQueue, "sub-queue", daemon.DefaultSubQueueLen,
		"per-subscriber event queue length; overflowing consumers are shed as subscriber-lagged")
	fs.BoolVar(&c.routerMode, "router", false,
		"run as a shard router gateway across -shards instead of a daemon")
	fs.StringVar(&c.shards, "shards", "",
		"comma-separated shard daemon addresses for -router")
	fs.StringVar(&c.follow, "follow", "",
		"run as a replication follower of this leader address (needs -data-dir)")
	fs.DurationVar(&c.promoteAfter, "promote-after", 0,
		"follower promotes itself to leader after this long without a reachable leader (0 = never; needs -follow)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 0,
		"leader self-fences (sheds writes as stale-leader) after this long without follower acks "+
			"(0 disables; needs -data-dir; must be below the followers' -promote-after)")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
}

// validate rejects flag values that would silently misconfigure the
// daemon: a negative interval is always a typo, and a zero
// -drain-timeout would make every shutdown force-close in-flight
// requests. Zero stays valid where it is the documented "disabled"
// setting.
func (c *config) validate() error {
	switch {
	case c.idle < 0:
		return fmt.Errorf("-idle-timeout must be >= 0 (0 disables), got %v", c.idle)
	case c.drain <= 0:
		return fmt.Errorf("-drain-timeout must be > 0, got %v", c.drain)
	case c.maxConns < 0:
		return fmt.Errorf("-max-conns must be >= 0 (0 = unlimited), got %d", c.maxConns)
	case c.fsyncEvery < 0:
		return fmt.Errorf("-fsync-interval must be >= 0 (0 = default), got %v", c.fsyncEvery)
	case c.snapshot < 0:
		return fmt.Errorf("-snapshot-interval must be >= 0 (0 disables), got %v", c.snapshot)
	case c.compact < 0:
		return fmt.Errorf("-compact-interval must be >= 0 (0 disables), got %v", c.compact)
	case c.maxPending < 0:
		return fmt.Errorf("-max-pending must be >= 0 (0 disables), got %d", c.maxPending)
	case c.degradeAt < 0:
		return fmt.Errorf("-degrade-at must be >= 0 (0 disables), got %d", c.degradeAt)
	case c.resumeAt < 0:
		return fmt.Errorf("-resume-at must be >= 0, got %d", c.resumeAt)
	case c.resumeAt > 0 && c.degradeAt > 0 && c.resumeAt >= c.degradeAt:
		return fmt.Errorf("-resume-at (%d) must be below -degrade-at (%d)", c.resumeAt, c.degradeAt)
	case c.checkTimeout < 0:
		return fmt.Errorf("-check-timeout must be >= 0 (0 disables), got %v", c.checkTimeout)
	case c.breakerTrip < 0 || c.breakerTrip > 1:
		return fmt.Errorf("-breaker-trip must be in [0,1] (0 disables), got %g", c.breakerTrip)
	case c.breakerWindow < 0:
		return fmt.Errorf("-breaker-window must be >= 0 (0 = default), got %d", c.breakerWindow)
	case c.breakerCooldown < 0:
		return fmt.Errorf("-breaker-cooldown must be >= 0 (0 = default), got %v", c.breakerCooldown)
	case c.commitDelay < 0:
		return fmt.Errorf("-commit-delay must be >= 0 (0 fsyncs immediately), got %v", c.commitDelay)
	case c.commitBatch < 0:
		return fmt.Errorf("-commit-batch must be >= 0 (0 = default), got %d", c.commitBatch)
	case c.groupCommit && c.dataDir == "":
		return fmt.Errorf("-group-commit needs -data-dir (there is no journal to commit without one)")
	case !c.groupCommit && (c.commitDelay > 0 || c.commitBatch > 0):
		return fmt.Errorf("-commit-delay and -commit-batch need -group-commit")
	case c.maxSubscribers == 0 || c.maxSubscribers < -1:
		return fmt.Errorf("-max-subscribers must be > 0 or -1 (unlimited), got %d", c.maxSubscribers)
	case c.subQueue <= 0:
		return fmt.Errorf("-sub-queue must be > 0, got %d", c.subQueue)
	case c.routerMode && c.shards == "":
		return fmt.Errorf("-router needs -shards (there is nothing to route to without them)")
	case !c.routerMode && c.shards != "":
		return fmt.Errorf("-shards needs -router")
	case c.routerMode && c.follow != "":
		return fmt.Errorf("-router and -follow are mutually exclusive roles")
	case c.routerMode && c.dataDir != "":
		return fmt.Errorf("-router keeps no state; -data-dir belongs on the shard daemons")
	case c.follow != "" && c.dataDir == "":
		return fmt.Errorf("-follow needs -data-dir (the replicated log must land somewhere)")
	case c.promoteAfter < 0:
		return fmt.Errorf("-promote-after must be >= 0 (0 disables), got %v", c.promoteAfter)
	case c.promoteAfter > 0 && c.follow == "":
		return fmt.Errorf("-promote-after needs -follow")
	case c.leaseTTL < 0:
		return fmt.Errorf("-lease-ttl must be >= 0 (0 disables), got %v", c.leaseTTL)
	case c.leaseTTL > 0 && c.dataDir == "" && !c.routerMode:
		return fmt.Errorf("-lease-ttl needs -data-dir (only a journaled leader can fence itself)")
	case c.routerMode && c.leaseTTL > 0:
		return fmt.Errorf("-lease-ttl belongs on the shard daemons; the router holds no lease")
	case c.leaseTTL > 0 && c.promoteAfter > 0 && c.leaseTTL >= c.promoteAfter:
		return fmt.Errorf("-lease-ttl (%v) must be below -promote-after (%v) so the old leader sheds before the promoted one serves",
			c.leaseTTL, c.promoteAfter)
	case c.traceSample < 0 || c.traceSample > 1:
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", c.traceSample)
	case c.traceSample > 0 && c.spanLog == "":
		return fmt.Errorf("-trace-sample needs -span-log (traced spans have nowhere to go without it)")
	}
	if c.routerMode {
		// Replica-set syntax ("primary|replica,...") is vetted here so a
		// typo fails at startup, not at the first probe.
		if _, err := cluster.ParseShardSpecs(splitShards(c.shards)); err != nil {
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

package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"ctxres/internal/cluster"
	"ctxres/internal/constraint"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// clientTimeout bounds one round trip. A request that exceeds it counts as
// failed; nothing on a healthy loopback run comes near it.
const clientTimeout = 20 * time.Second

// nodeConfig describes one daemon of a system under test.
type nodeConfig struct {
	checker func() *constraint.Checker
	walDir  string              // "" runs without a journal
	ship    bool                // tap the journal for a replication follower
	reg     *telemetry.Registry // nil on untraced runs
}

// node is one in-process ctxmwd: middleware, optional fsync-always
// group-commit journal, and the TCP server in front of it. The bench keeps
// the middleware handle for what the wire protocol does not carry:
// count-triggered compaction, fingerprints, and teardown checks.
type node struct {
	mw      *middleware.Middleware
	srv     *daemon.Server
	shipper *cluster.Shipper
}

// build returns the middleware this node serves, without a journal: the
// same function recovery uses to rebuild it from the log.
func (cfg nodeConfig) build() *middleware.Middleware {
	var opts []middleware.Option
	if cfg.reg != nil {
		opts = append(opts, middleware.WithTelemetry(cfg.reg))
	}
	return middleware.New(cfg.checker(), strategy.NewDropBad(), opts...)
}

func startNode(cfg nodeConfig) (*node, error) {
	n := &node{mw: cfg.build()}
	var serveOpts []daemon.Option
	if cfg.reg != nil {
		serveOpts = append(serveOpts, daemon.WithTelemetry(cfg.reg))
	}
	if cfg.walDir != "" {
		wopt := wal.Options{
			Dir:         cfg.walDir,
			Fsync:       wal.FsyncAlways,
			GroupCommit: true,
			Observer:    middleware.NewWALObserver(cfg.reg),
		}
		if cfg.ship {
			n.shipper = cluster.NewShipper(cluster.ShipperOptions{Dir: cfg.walDir, Telemetry: cfg.reg})
			wopt.Ship, wopt.ShipSnapshot = n.shipper.Tap, n.shipper.TapSnapshot
			serveOpts = append(serveOpts, daemon.WithReplicationSource(n.shipper))
		}
		j, err := wal.Open(wopt)
		if err != nil {
			return nil, fmt.Errorf("open wal %s: %w", cfg.walDir, err)
		}
		if n.shipper != nil {
			n.shipper.Attach(j)
		}
		if err := n.mw.AttachJournal(j); err != nil {
			_ = j.Close()
			return nil, err
		}
	}
	srv, err := daemon.Serve("127.0.0.1:0", n.mw, nil, serveOpts...)
	if err != nil {
		_ = n.mw.CloseJournal()
		return nil, err
	}
	n.srv = srv
	return n, nil
}

func (n *node) addr() string { return n.srv.Addr().String() }

// stop shuts the server down and closes the journal, leaving the log
// directory in place for the teardown checks.
func (n *node) stop() error {
	n.srv.Shutdown()
	return n.mw.CloseJournal()
}

func dial(addr, wireFormat string) (*daemon.Client, error) {
	// One attempt: a transport failure must surface as a failed op, not be
	// papered over by the client's transparent reconnect.
	return daemon.DialOptions(addr, daemon.ClientOptions{
		Timeout: clientTimeout, MaxAttempts: 1, WireFormat: wireFormat,
	})
}

func dialLanes(addr, wireFormat string, lanes int) ([]*daemon.Client, error) {
	out := make([]*daemon.Client, 0, lanes)
	for i := 0; i < lanes; i++ {
		c, err := dial(addr, wireFormat)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeClients(cs []*daemon.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// freeAddr reserves a loopback address nothing listens on: the replica
// member of a shard's replica set, which a follower would serve on only
// after a promotion.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

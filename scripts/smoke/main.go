// Command smoke holds the client-side helpers of scripts/smoke.sh as
// subcommands, so the script builds one binary instead of `go run`ning a
// package per step:
//
//	smoke promcheck                      validate Prometheus text exposition on stdin
//	smoke subsmoke <daemon-addr>         subscribe, submit, await the pushed activation
//	smoke clustersmoke <seed|verify|fenced> <addr> [fallback-addr ...]
//	smoke tracesmoke <router-addr> <shard-addr> [shard-addr ...]
//	smoke freeport                       print a free 127.0.0.1 TCP address
//
// A failed check exits 1 with "<subcommand>: <reason>" on stderr; a usage
// error exits 2.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/telemetry"
)

// usageError is a subcommand's complaint about its arguments.
type usageError string

func (u usageError) Error() string { return "usage: " + string(u) }

func main() {
	tools := map[string]func(args []string) error{
		"promcheck":    promcheck,
		"subsmoke":     subsmoke,
		"clustersmoke": clustersmoke,
		"tracesmoke":   tracesmoke,
		"freeport":     freeport,
	}
	if len(os.Args) < 2 || tools[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: smoke <promcheck|subsmoke|clustersmoke|tracesmoke|freeport> [args]")
		os.Exit(2)
	}
	err := tools[os.Args[1]](os.Args[2:])
	var usage usageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// promcheck validates Prometheus text exposition read from stdin. The
// smoke script pipes live /metrics scrapes through it.
func promcheck([]string) error {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	if err := telemetry.ValidateExposition(data); err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	fmt.Printf("promcheck: ok (%d bytes)\n", len(data))
	return nil
}

// freeport prints a free 127.0.0.1 TCP address. The smoke script uses it
// to pick a follower's serving address up front, so a router can list the
// follower as a replica-set member before it is ever promoted (a follower
// only starts serving once it takes over).
func freeport([]string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing was accepted or written
	fmt.Println(addr)
	return nil
}

// subsmoke is the subscriber leg: it subscribes to a live ctxmwd with an
// inline formula, submits a matching context, and succeeds once the
// activation is pushed back over the same connection.
func subsmoke(args []string) error {
	if len(args) != 1 {
		return usageError("subsmoke <daemon-addr>")
	}
	client, err := daemon.Dial(args[0], 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %v", args[0], err)
	}
	defer client.Close()

	events := make(chan daemon.WireEvent, 16) // far more than the one push awaited
	err = client.SubscribeFormula("smoke",
		`exists a: location . subjectIs(a, "smoke-subject")`,
		func(_ string, ev daemon.WireEvent) { events <- ev })
	if err != nil {
		return fmt.Errorf("subscribe: %v", err)
	}

	c := ctx.NewLocation("smoke-subject", time.Now().UTC(), ctx.Point{},
		ctx.WithSeq(1), ctx.WithSource("subsmoke"))
	if _, err := client.Submit(c); err != nil {
		return fmt.Errorf("submit: %v", err)
	}

	select {
	case ev := <-events:
		if ev.Type != "activated" {
			return fmt.Errorf("first push = %s %s, want an activation", ev.Situation, ev.Type)
		}
		fmt.Printf("subsmoke: pushed %s %s\n", ev.Situation, ev.Type)
	case <-time.After(5 * time.Second):
		return errors.New("no activation pushed within 5s")
	}
	if err := client.Unsubscribe("smoke"); err != nil {
		return fmt.Errorf("unsubscribe: %v", err)
	}
	return nil
}

// clustersmoke is the clustering leg: `seed` submits location contexts
// from two sources through a router or leader, `verify` reads the subject
// back with use-latest. Extra addresses after the first are dial
// fallbacks (daemon.ClientOptions.Addrs), so `verify <dead-leader>
// <promoted-follower>` exercises exactly the failover path a real client
// takes. `fenced` asserts the split-brain guard: the daemon at <addr> must
// still answer reads but shed a write with the typed stale-leader code
// (see ctxmwd -lease-ttl).
func clustersmoke(args []string) error {
	if len(args) < 2 {
		return usageError("clustersmoke <seed|verify|fenced> <addr> [fallback-addr ...]")
	}
	mode, addr := args[0], args[1]
	client, err := daemon.DialOptions(addr, daemon.ClientOptions{
		Timeout: 5 * time.Second,
		Addrs:   args[2:],
	})
	if err != nil {
		return fmt.Errorf("dial %s: %v", addr, err)
	}
	defer client.Close()

	switch mode {
	case "seed":
		// Two sources, so a consistent-hash router spreads the workload
		// across both shards.
		now := time.Now().UTC()
		for i, src := range []string{"cs-src-a", "cs-src-b"} {
			c := ctx.NewLocation("cluster-subject", now.Add(time.Duration(i)*time.Second),
				ctx.Point{X: float64(i)},
				ctx.WithID(ctx.ID(fmt.Sprintf("cs-%d", i))),
				ctx.WithSeq(uint64(i+1)), ctx.WithSource(src))
			if _, err := client.Submit(c); err != nil {
				return fmt.Errorf("submit %s: %v", c.ID, err)
			}
		}
		fmt.Println("clustersmoke: seeded 2 sources")
	case "verify":
		c, err := client.UseLatest(ctx.KindLocation, "cluster-subject")
		if err != nil {
			return fmt.Errorf("use-latest: %v", err)
		}
		fmt.Printf("clustersmoke: read %s from source %s\n", c.ID, c.Source)
	case "fenced":
		// A fenced (lease-expired or deposed) leader stays useful for
		// queries...
		if err := client.Ping(); err != nil {
			return fmt.Errorf("ping at fenced leader: %v", err)
		}
		if _, _, err := client.Stats(); err != nil {
			return fmt.Errorf("stats at fenced leader: %v", err)
		}
		// ...but must shed state-changing operations with the typed code.
		c := ctx.NewLocation("cluster-subject", time.Now().UTC(), ctx.Point{X: 99},
			ctx.WithID("cs-fenced"), ctx.WithSeq(99), ctx.WithSource("cs-src-a"))
		_, err := client.Submit(c)
		if code := daemon.ErrorCode(err); code != daemon.CodeStaleLeader {
			return fmt.Errorf("write at fenced leader = %v (code %q), want %s", err, code, daemon.CodeStaleLeader)
		}
		fmt.Println("clustersmoke: fenced leader sheds writes, still serves reads")
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

// tracesmoke is the tracing leg: it submits a conflicting pair of
// location contexts through the router under one client-rooted trace,
// checks the violation actually fired, and then reads the resolution back
// out of the shards' provenance rings tagged with the same trace ID. The
// trace ID is the only thing printed on stdout, so the smoke script can
// feed it straight to ctxspan.
func tracesmoke(args []string) error {
	if len(args) < 2 {
		return usageError("tracesmoke <router-addr> <shard-addr> [shard-addr ...]")
	}
	router, shards := args[0], args[1:]

	client, err := daemon.DialOptions(router, daemon.ClientOptions{
		Timeout: 5 * time.Second,
		Trace:   true,
	})
	if err != nil {
		return fmt.Errorf("dial %s: %v", router, err)
	}
	defer client.Close()

	// One client-rooted trace for both submissions. The second context
	// teleports 8 m in half a second, violating the callforward profile's
	// velocity and concurrent-agreement constraints on whichever shard
	// owns the source (and on every mirror).
	tr := telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	now := time.Now().UTC()
	pair := []*ctx.Context{
		ctx.NewLocation("peter", now, ctx.Point{X: 1, Y: 1},
			ctx.WithID("ts-1"), ctx.WithSeq(1), ctx.WithSource("ts-src-a")),
		ctx.NewLocation("peter", now.Add(500*time.Millisecond), ctx.Point{X: 9, Y: 1},
			ctx.WithID("ts-2"), ctx.WithSeq(2), ctx.WithSource("ts-src-a")),
	}
	var violations int
	for _, c := range pair {
		vios, err := client.SubmitTrace(c, 0, tr)
		if err != nil {
			return fmt.Errorf("submit %s: %v", c.ID, err)
		}
		violations += len(vios)
	}
	if violations == 0 {
		return errors.New("conflicting pair provoked no violations")
	}

	// The resolution must be queryable after the fact, attributed to the
	// submission's trace, from at least one shard's provenance ring.
	found := false
	for _, addr := range shards {
		sc, err := daemon.Dial(addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dial shard %s: %v", addr, err)
		}
		events, err := sc.Provenance(50)
		sc.Close()
		if err != nil {
			return fmt.Errorf("provenance %s: %v", addr, err)
		}
		for _, ev := range events {
			if ev.TraceID == tr.TraceID {
				found = true
				fmt.Fprintf(os.Stderr, "tracesmoke: %s resolved %s via %s (discarded %v)\n",
					addr, ev.Constraint, ev.Strategy, ev.Discarded)
			}
		}
	}
	if !found {
		return fmt.Errorf("no provenance event carries trace %s", tr.TraceID)
	}
	fmt.Println(tr.TraceID)
	return nil
}

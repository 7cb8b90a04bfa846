// Package faultconn injects transport faults into net.Listener and
// net.Conn values for chaos-testing the daemon serving path: transient
// accept errors, mid-frame disconnects, truncated writes, and stalls.
//
// Faults are deterministic: explicit budgets and counts script exactly
// which bytes survive, and the Chaos listener derives its per-connection
// fault mix from a caller-supplied seed, so a failing run reproduces from
// the seed alone. The package has no dependency on the daemon; it wraps
// plain net interfaces and is usable by any transport test.
package faultconn

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected reports an injected fault on a read or write. The underlying
// connection is closed when it is returned.
var ErrInjected = errors.New("faultconn: injected fault")

// tempError is a transient accept failure, shaped like the retryable
// errors a real listener produces (ECONNABORTED, EMFILE under pressure).
type tempError struct{}

func (tempError) Error() string   { return "faultconn: injected transient accept error" }
func (tempError) Temporary() bool { return true }
func (tempError) Timeout() bool   { return false }

// Listener wraps a net.Listener with scripted accept faults and an
// optional per-connection wrapper.
type Listener struct {
	net.Listener

	mu        sync.Mutex
	transient int
	wrap      func(i int, c net.Conn) net.Conn
	accepted  int
}

// ListenerOption configures a Listener.
type ListenerOption func(*Listener)

// WithTransientAcceptErrors makes the next n Accept calls fail with a
// temporary error before accepting for real.
func WithTransientAcceptErrors(n int) ListenerOption {
	return func(l *Listener) { l.transient = n }
}

// WithConnWrapper installs f to wrap the i-th accepted connection
// (0-based, in accept order).
func WithConnWrapper(f func(i int, c net.Conn) net.Conn) ListenerOption {
	return func(l *Listener) { l.wrap = f }
}

// NewListener wraps ln.
func NewListener(ln net.Listener, opts ...ListenerOption) *Listener {
	l := &Listener{Listener: ln}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Accept returns a scripted transient error while any remain, then
// delegates to the inner listener and applies the connection wrapper.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.transient > 0 {
		l.transient--
		l.mu.Unlock()
		return nil, tempError{}
	}
	l.mu.Unlock()
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.accepted
	l.accepted++
	wrap := l.wrap
	l.mu.Unlock()
	if wrap != nil {
		c = wrap(i, c)
	}
	return c, nil
}

// Accepted returns how many connections have been accepted (post-fault).
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// Conn wraps a net.Conn with byte-budget, stall, and jitter faults.
type Conn struct {
	net.Conn

	mu          sync.Mutex
	readBudget  int // -1 = unlimited
	writeBudget int // -1 = unlimited
	writeStall  time.Duration
	jitter      *rand.Rand    // nil = no jitter
	jitterMax   time.Duration // exclusive upper bound per operation
}

// ConnOption configures a Conn.
type ConnOption func(*Conn)

// CutAfterWrites closes the connection once n bytes have been written;
// the write that crosses the budget is truncated — a mid-frame disconnect
// as the peer sees it.
func CutAfterWrites(n int) ConnOption {
	return func(c *Conn) { c.writeBudget = n }
}

// CutAfterReads closes the connection once n bytes have been read, so the
// wrapped side sees a response truncated mid-frame.
func CutAfterReads(n int) ConnOption {
	return func(c *Conn) { c.readBudget = n }
}

// WithWriteStall sleeps d before every write (responses arrive late,
// tripping peer deadlines).
func WithWriteStall(d time.Duration) ConnOption {
	return func(c *Conn) { c.writeStall = d }
}

// WithJitter delays every read and write by a pseudo-random duration in
// [0, max), drawn from a PRNG seeded with seed. Unlike the fixed write stall,
// jitter models a congested or wireless link where latency varies
// per-operation; the delay sequence is a pure function of the seed and
// the read/write call order, so a failing run reproduces from the seed.
func WithJitter(seed int64, max time.Duration) ConnOption {
	return func(c *Conn) {
		if max > 0 {
			c.jitter = rand.New(rand.NewSource(seed))
			c.jitterMax = max
		}
	}
}

// jitterDelay draws the next scripted delay, or zero without jitter. The
// draw happens under the lock (rand.Rand is not concurrency-safe); the
// caller sleeps outside it.
func (c *Conn) jitterDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jitter == nil {
		return 0
	}
	return time.Duration(c.jitter.Int63n(int64(c.jitterMax)))
}

// Wrap decorates conn with the given faults.
func Wrap(conn net.Conn, opts ...ConnOption) *Conn {
	c := &Conn{Conn: conn, readBudget: -1, writeBudget: -1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Read applies the read jitter and budget, closing the connection and
// returning ErrInjected once the budget is exhausted.
func (c *Conn) Read(p []byte) (int, error) {
	if d := c.jitterDelay(); d > 0 {
		time.Sleep(d)
	}
	n, cut := c.takeBudget(&c.readBudget, len(p))
	if !cut {
		return c.Conn.Read(p)
	}
	read := 0
	if n > 0 {
		read, _ = c.Conn.Read(p[:n])
	}
	_ = c.Conn.Close()
	return read, ErrInjected
}

// Write applies the write stall and budget, truncating the write that
// crosses the budget and closing the connection.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	stall := c.writeStall
	c.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if d := c.jitterDelay(); d > 0 {
		time.Sleep(d)
	}
	n, cut := c.takeBudget(&c.writeBudget, len(p))
	if !cut {
		return c.Conn.Write(p)
	}
	written := 0
	if n > 0 {
		written, _ = c.Conn.Write(p[:n])
	}
	_ = c.Conn.Close()
	return written, ErrInjected
}

// takeBudget consumes up to want from the budget. It returns how much of
// the operation may proceed and whether the budget was exceeded.
func (c *Conn) takeBudget(budget *int, want int) (allowed int, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *budget < 0 {
		return want, false
	}
	if want <= *budget {
		*budget -= want
		return want, false
	}
	allowed = *budget
	*budget = 0
	return allowed, true
}

// ChaosConfig tunes the seeded fault mix of Chaos.
type ChaosConfig struct {
	// FaultRate is the probability an accepted connection gets a fault.
	FaultRate float64
	// MinBytes/MaxBytes bound the write budget of a truncation fault.
	MinBytes, MaxBytes int
	// Stall, when positive, makes roughly half the faulted connections
	// stalled (by Stall per write) instead of truncated.
	Stall time.Duration
	// Jitter, when positive, makes roughly a third of the faulted
	// connections jittered — every read and write delayed by a seeded
	// pseudo-random duration in [0, Jitter) — instead of cut or stalled.
	Jitter time.Duration
	// ReadCut, when set, makes roughly half of the truncation faults cut
	// the connection's read side instead of its write side: the server
	// sees the request stream break mid-frame rather than its response
	// being truncated. Byte budgets are framing-agnostic, so both cut
	// flavors land inside line-JSON and binary frames alike. The option is
	// gated (off by default) so the fault sequence of existing seeds is
	// unchanged.
	ReadCut bool
}

// Chaos wraps ln so that each accepted connection is, with probability
// cfg.FaultRate, either cut after a PRNG-chosen number of written bytes,
// stalled on every write, or latency-jittered on every read and write.
// The fault assignment (and each jittered connection's delay sequence)
// is a pure function of seed and accept order, so runs are reproducible.
func Chaos(ln net.Listener, seed int64, cfg ChaosConfig) *Listener {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return NewListener(ln, WithConnWrapper(func(i int, c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		if rng.Float64() >= cfg.FaultRate {
			return c
		}
		budget := cfg.MinBytes
		if cfg.MaxBytes > cfg.MinBytes {
			budget += rng.Intn(cfg.MaxBytes - cfg.MinBytes)
		}
		if cfg.Jitter > 0 && rng.Intn(3) == 0 {
			return Wrap(c, WithJitter(rng.Int63(), cfg.Jitter))
		}
		if cfg.Stall > 0 && rng.Intn(2) == 0 {
			return Wrap(c, WithWriteStall(cfg.Stall))
		}
		if cfg.ReadCut && rng.Intn(2) == 0 {
			return Wrap(c, CutAfterReads(budget))
		}
		return Wrap(c, CutAfterWrites(budget))
	}))
}

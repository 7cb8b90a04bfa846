package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/telemetry"
)

// Handler is one connection's role-specific logic behind the shared
// serving loop. The loop owns everything a role must not get wrong —
// accepting, the connection cap, idle deadlines, framing and its typed
// errors, request decoding, the hello handshake, request telemetry, and
// drain — and hands each decoded request to the connection's Handler.
// There are two roles: the middleware daemon (Serve) and the shard
// router (cluster.ServeRouter).
type Handler interface {
	// Handle answers one request (never OpHello; the loop negotiates that).
	// A non-nil stream takes the connection over once the response is
	// written: it runs on the serving goroutine, which reads no further
	// requests, and the connection closes when it returns.
	Handle(req *Request) (resp Response, stream func())
	// Subscribed reports whether the connection holds live subscriptions.
	// Such a connection legitimately idles between pushes, so the idle
	// reaper skips it, and it may not renegotiate its wire format.
	Subscribed() bool
	// Close releases the connection's state. It runs after the connection
	// is closed, so a writer blocked in a push has been unblocked.
	Close()
}

// Loop serves the protocol on a listener, one Handler per connection.
// Create it with ServeLoop and stop it with Shutdown; every connection
// goroutine is joined on shutdown.
//
// The serving path is fault-tolerant: transient Accept errors are retried
// with capped exponential backoff, connections past the cap are answered
// with a CodeBusy error, idle connections are reaped after the idle
// timeout, and oversized or malformed frames get a protocol error
// response instead of a silent close.
type Loop struct {
	ln         net.Listener
	opt        options
	newHandler func(*Peer) Handler
	start      time.Time

	mu     sync.Mutex
	closed bool
	conns  map[*Peer]struct{}

	wg   sync.WaitGroup
	stop chan struct{} // closed when Shutdown starts
	done chan struct{} // closed when Shutdown finishes
	// drainNotify wakes the drain loop when a request finishes or a
	// connection goroutine exits (capacity 1: a pending token means
	// "re-check", collapsing bursts).
	drainNotify chan struct{}
	counters    loopCounters

	// tel's zero value disables all per-request instruments.
	tel loopTelemetry
}

// MaxLineBytes bounds a single request/response frame.
const MaxLineBytes = 1 << 20

// Tuning defaults (see the With* options).
const (
	DefaultIdleTimeout      = 5 * time.Minute
	DefaultMaxConns         = 1024
	DefaultDrainTimeout     = 5 * time.Second
	DefaultAcceptBackoffMin = 5 * time.Millisecond
	DefaultAcceptBackoffMax = time.Second
)

type options struct {
	idleTimeout      time.Duration
	maxConns         int
	drainTimeout     time.Duration
	acceptBackoffMin time.Duration
	acceptBackoffMax time.Duration
	snapshotInterval time.Duration
	compactInterval  time.Duration
	telemetry        *telemetry.Registry
	subs             SubscriptionOptions
	replSource       ReplicationSource
	spanSink         telemetry.SpanSink
	sampler          *telemetry.Sampler
	prov             *telemetry.ProvenanceRing
	fence            FenceProvider
}

func defaultOptions() options {
	return options{
		idleTimeout:      DefaultIdleTimeout,
		maxConns:         DefaultMaxConns,
		drainTimeout:     DefaultDrainTimeout,
		acceptBackoffMin: DefaultAcceptBackoffMin,
		acceptBackoffMax: DefaultAcceptBackoffMax,
	}
}

// Option tunes a serving loop and the role behind it.
type Option func(*options)

// WithIdleTimeout sets the per-connection read deadline between requests;
// a connection idle longer is closed. Zero or negative disables the
// deadline (connections may idle forever).
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithMaxConns caps concurrent connections; extra connections receive a
// CodeBusy error response and are closed. Zero or negative means
// unlimited.
func WithMaxConns(n int) Option {
	return func(o *options) { o.maxConns = n }
}

// WithDrainTimeout bounds how long Shutdown waits for in-flight requests
// to finish before force-closing their connections.
func WithDrainTimeout(d time.Duration) Option {
	return func(o *options) { o.drainTimeout = d }
}

// WithAcceptBackoff sets the backoff window for retrying temporary Accept
// errors (the delay starts at min and doubles up to max).
func WithAcceptBackoff(min, max time.Duration) Option {
	return func(o *options) { o.acceptBackoffMin, o.acceptBackoffMax = min, max }
}

// loopCounters are the transport-level counters; ServerStats is their
// snapshot form.
type loopCounters struct {
	accepted      atomic.Int64
	acceptRetries atomic.Int64
	rejectedFull  atomic.Int64
	requests      atomic.Int64
	badRequests   atomic.Int64
	framesTooLong atomic.Int64
	idleClosed    atomic.Int64
	readErrors    atomic.Int64
}

// Stats snapshots the transport counters; the role-specific ServerStats
// fields stay zero.
func (l *Loop) Stats() ServerStats {
	return ServerStats{
		Accepted:      l.counters.accepted.Load(),
		AcceptRetries: l.counters.acceptRetries.Load(),
		RejectedFull:  l.counters.rejectedFull.Load(),
		Requests:      l.counters.requests.Load(),
		BadRequests:   l.counters.badRequests.Load(),
		FramesTooLong: l.counters.framesTooLong.Load(),
		IdleClosed:    l.counters.idleClosed.Load(),
		ReadErrors:    l.counters.readErrors.Load(),
		UptimeSeconds: time.Since(l.start).Seconds(),
	}
}

// Peer is one served connection: the framed Conn the loop reads requests
// from and the handler pushes frames to, plus its drain status — Shutdown
// closes idle connections immediately but lets a connection that has read
// a request finish writing its response.
type Peer struct {
	*Conn
	loop *Loop

	mu       sync.Mutex
	inFlight bool
	closed   bool
}

// Push writes one server-initiated frame (or a response) in the
// connection's negotiated format, bounded by the loop's idle timeout. It
// reports whether the frame was written whole; after a failure the stream
// is no longer at a frame boundary and the connection must be dropped.
func (p *Peer) Push(resp Response) bool {
	return p.write(resp, p.loop.opt.idleTimeout)
}

func (p *Peer) write(resp Response, timeout time.Duration) bool {
	payload, err := json.Marshal(resp)
	if err != nil {
		return false
	}
	return p.WriteFrame(payload, timeout) == nil
}

func (p *Peer) beginRequest() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.inFlight = true
	return true
}

// endRequest signals the drain loop, so a draining Shutdown wakes as soon
// as the last in-flight request finishes instead of polling.
func (p *Peer) endRequest() {
	p.mu.Lock()
	p.inFlight = false
	p.mu.Unlock()
	p.loop.notifyDrain()
}

// notifyDrain posts a non-blocking wakeup token; a token already pending
// means a re-check is queued and nothing is lost.
func (l *Loop) notifyDrain() {
	select {
	case l.drainNotify <- struct{}{}:
	default:
	}
}

// closeIfIdle closes the connection unless a request is in flight. It
// reports whether the connection is (now) closed.
func (p *Peer) closeIfIdle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return true
	}
	if p.inFlight {
		return false
	}
	p.closed = true
	_ = p.Close()
	return true
}

func (p *Peer) forceClose() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		_ = p.Close()
	}
}

// ServeLoop starts serving on ln, building one Handler per admitted
// connection. It takes ownership of ln (Shutdown closes it). Of the
// options, the loop itself reads the connection tunings, WithTelemetry,
// WithTracing (whether hello acks trace offers) and WithFence (the epoch
// on hello acks); the rest belong to the middleware role.
func ServeLoop(ln net.Listener, newHandler func(*Peer) Handler, opts ...Option) *Loop {
	l := newLoop(ln, newHandler, opts)
	l.run()
	return l
}

// newLoop builds a loop that accepts nothing until run, so a role can
// finish the state its handlers read before the first connection.
func newLoop(ln net.Listener, newHandler func(*Peer) Handler, opts []Option) *Loop {
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	l := &Loop{
		ln:          ln,
		opt:         opt,
		newHandler:  newHandler,
		start:       time.Now(),
		conns:       make(map[*Peer]struct{}),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		drainNotify: make(chan struct{}, 1),
		tel:         newLoopTelemetry(opt.telemetry),
	}
	l.registerTelemetryFuncs(opt.telemetry)
	return l
}

func (l *Loop) run() {
	l.wg.Add(1)
	go l.acceptLoop()
}

// Addr returns the listener's address (useful with ephemeral ports).
func (l *Loop) Addr() net.Addr { return l.ln.Addr() }

// Shutdown stops accepting, drains in-flight requests (bounded by the
// drain timeout), closes every live connection, and waits for all
// connection goroutines to exit. It is idempotent.
func (l *Loop) Shutdown() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return
	}
	l.closed = true
	close(l.stop)
	_ = l.ln.Close()
	l.mu.Unlock()

	l.drain()
	l.wg.Wait()
	close(l.done)
}

// drain closes idle connections immediately and gives connections with a
// request in flight until the drain timeout to finish responding. It is
// event-driven: finished requests and departing connection goroutines
// signal drainNotify, so the loop wakes exactly when progress is possible
// (plus one deadline timer) instead of polling.
func (l *Loop) drain() {
	timer := time.NewTimer(l.opt.drainTimeout)
	defer timer.Stop()
	for {
		l.mu.Lock()
		peers := make([]*Peer, 0, len(l.conns))
		for p := range l.conns {
			peers = append(peers, p)
		}
		l.mu.Unlock()
		if len(peers) == 0 {
			return
		}
		allClosed := true
		for _, p := range peers {
			if !p.closeIfIdle() {
				allClosed = false
			}
		}
		if allClosed {
			return
		}
		select {
		case <-timer.C:
			for _, p := range peers {
				p.forceClose()
			}
			return
		case <-l.drainNotify:
			// A request finished or a connection went away: re-check.
		}
	}
}

// Done is closed once the loop has fully stopped.
func (l *Loop) Done() <-chan struct{} { return l.done }

// draining reports whether Shutdown has started.
func (l *Loop) draining() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

func (l *Loop) acceptLoop() {
	defer l.wg.Done()
	backoff := l.opt.acceptBackoffMin
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if l.draining() || !isTemporary(err) {
				return
			}
			// Transient failure (EMFILE, ECONNABORTED, an injected fault):
			// back off and keep the server alive instead of killing the
			// accept loop permanently.
			l.counters.acceptRetries.Add(1)
			select {
			case <-l.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > l.opt.acceptBackoffMax {
				backoff = l.opt.acceptBackoffMax
			}
			continue
		}
		backoff = l.opt.acceptBackoffMin
		p := &Peer{Conn: NewConn(conn), loop: l}
		switch l.track(p) {
		case trackClosed:
			_ = conn.Close()
			return
		case trackFull:
			l.counters.rejectedFull.Add(1)
			l.rejectBusy(p)
			continue
		}
		l.counters.accepted.Add(1)
		l.wg.Add(1)
		go l.serveConn(p)
	}
}

// isTemporary reports whether an Accept error is worth retrying.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// rejectBusy answers an over-cap connection with a protocol error before
// closing it, so well-behaved clients can tell overload from a crash. It
// runs on the accept loop, so the write deadline matters: it is derived
// from the configured idle timeout (capped at one second) rather than
// hardcoded, keeping a stalled over-cap client from holding up Accept
// longer than the server's own idle policy would tolerate.
func (l *Loop) rejectBusy(p *Peer) {
	d := l.opt.idleTimeout
	if d <= 0 || d > time.Second {
		d = time.Second
	}
	p.write(errResponseCode(CodeBusy, fmt.Errorf("server at connection cap (%d)", l.opt.maxConns)), d)
	_ = p.Close()
}

type trackResult int

const (
	trackOK trackResult = iota
	trackClosed
	trackFull
)

func (l *Loop) track(p *Peer) trackResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return trackClosed
	}
	if l.opt.maxConns > 0 && len(l.conns) >= l.opt.maxConns {
		return trackFull
	}
	l.conns[p] = struct{}{}
	return trackOK
}

func (l *Loop) untrack(p *Peer) {
	l.mu.Lock()
	delete(l.conns, p)
	l.mu.Unlock()
	l.notifyDrain()
}

func (l *Loop) serveConn(p *Peer) {
	defer l.wg.Done()
	defer l.untrack(p)
	h := l.newHandler(p)
	// Closing the connection first unblocks a handler goroutine stuck in a
	// push, so Close can join it.
	defer func() {
		_ = p.Close()
		h.Close()
	}()
	// role is the hello-declared connection role; follower and router
	// connections are exempt from the idle reaper (see protocol.go).
	role := ""
	for {
		if l.opt.idleTimeout > 0 {
			// The idle reaper only applies to plain clients with no
			// subscriptions.
			var deadline time.Time
			if !h.Subscribed() && role != RoleFollower && role != RoleRouter {
				deadline = time.Now().Add(l.opt.idleTimeout)
			}
			if err := p.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		payload, readErr := p.ReadFrame()
		if readErr != nil {
			switch {
			case errors.Is(readErr, io.EOF) || l.draining():
				// Clean disconnect, or our own shutdown close.
			case errors.Is(readErr, errFrameTooLong):
				// The stream cannot be re-synchronized past an unbounded
				// line or a rejected frame, but the client deserves to know
				// why it is being dropped.
				l.counters.framesTooLong.Add(1)
				p.Push(errResponseCode(CodeFrameTooLong,
					fmt.Errorf("request frame exceeds %d bytes", MaxLineBytes)))
			case errors.Is(readErr, errFrameCRC):
				// Corrupt frame: the payload length was consumed, but the
				// content cannot be trusted — and neither can anything after
				// it on this stream.
				l.counters.badRequests.Add(1)
				p.Push(errResponseCode(CodeBadRequest,
					errors.New("bad request: frame checksum mismatch")))
			case isTimeout(readErr):
				l.counters.idleClosed.Add(1)
			default:
				l.counters.readErrors.Add(1)
			}
			return
		}
		if len(payload) == 0 {
			continue
		}
		if !p.beginRequest() {
			return // shutdown closed the connection under us
		}
		l.counters.requests.Add(1)
		l.tel.inflight.Add(1)
		reqStart := l.tel.now()
		var req Request
		var resp Response
		var stream func()
		op := "invalid"
		if err := json.Unmarshal(payload, &req); err != nil {
			l.counters.badRequests.Add(1)
			resp = errResponseCode(CodeBadRequest, fmt.Errorf("bad request: %w", err))
		} else {
			internRequest(&req)
			op = string(req.Op)
			if req.Op == OpHello {
				resp = l.hello(h, &req)
			} else {
				resp, stream = h.Handle(&req)
			}
		}
		l.tel.requestDone(op, reqStart, resp)
		l.tel.inflight.Add(-1)
		ok := p.Push(resp)
		p.endRequest()
		if !ok || l.draining() {
			return
		}
		// The hello ack travels in the old format; everything after it in
		// the negotiated one. No push can race the switch: hello is
		// refused once the connection has subscriptions.
		if req.Op == OpHello && resp.OK {
			p.SetFormat(resp.Format)
			role = req.Role
		}
		if stream != nil {
			stream()
			return
		}
	}
}

// hello negotiates the connection's wire format, role and tracing.
func (l *Loop) hello(h Handler, req *Request) Response {
	if h.Subscribed() {
		return errResponse(errors.New("hello: cannot renegotiate wire format with active subscriptions"))
	}
	switch req.Role {
	case "", RoleClient, RoleFollower, RoleRouter:
	default:
		return errResponse(fmt.Errorf("hello: unknown role %q", req.Role))
	}
	format := req.Format
	switch format {
	case "":
		format = FormatJSON
	case FormatJSON, FormatBinary:
	default:
		return errResponse(fmt.Errorf("hello: unknown format %q", req.Format))
	}
	// The trace ack is true only when this server can actually record
	// spans; a client must not stamp trace fields without it, so peers on
	// either side of the upgrade exchange identical bytes.
	//
	// With a fence installed the ack announces the fencing epoch, so
	// routers and clients learn promotions at connect time without an
	// extra stats round-trip. Epoch 0 (pre-fencing) is omitted on the
	// wire, keeping the ack bytes identical to older peers'.
	var epoch uint64
	if l.opt.fence != nil {
		epoch = l.opt.fence.Epoch()
	}
	return Response{OK: true, Format: format, Trace: req.Trace && l.opt.spanSink != nil, Epoch: epoch}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// loopTelemetry bundles the per-request instruments. The zero value is
// "telemetry off": all instruments are nil and no clock is read.
type loopTelemetry struct {
	on       bool
	requests *telemetry.HistogramVec // by op
	inflight *telemetry.Gauge
	errcodes *telemetry.CounterVec // by response code
}

func newLoopTelemetry(reg *telemetry.Registry) loopTelemetry {
	if reg == nil {
		return loopTelemetry{}
	}
	return loopTelemetry{
		on:       true,
		requests: reg.HistogramVec("ctxres_request_seconds", "Daemon request latency by operation.", "op", nil),
		inflight: reg.Gauge("ctxres_inflight_requests", "Requests currently being handled."),
		errcodes: reg.CounterVec("ctxres_request_errors_total", "Failed responses by error code.", "code"),
	}
}

func (t *loopTelemetry) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

// requestDone observes one finished request: latency by op, and the
// error code when the response reports a failure. A request that ran
// under a sampled trace (the response echoes its ID) attaches the trace
// ID as the latency bucket's exemplar.
func (t *loopTelemetry) requestDone(op string, start time.Time, resp Response) {
	if start.IsZero() {
		return
	}
	if resp.TraceID != "" {
		t.requests.With(op).ObserveDurationExemplar(time.Since(start), resp.TraceID)
	} else {
		t.requests.With(op).ObserveDuration(time.Since(start))
	}
	if !resp.OK {
		t.errcodes.With(string(resp.Code)).Inc()
	}
}

// registerTelemetryFuncs installs the scrape-time callbacks: the
// transport counters stay owned by loopCounters (one set of atomics, no
// double bookkeeping) and are read at scrape time, as are uptime and
// open connections.
func (l *Loop) registerTelemetryFuncs(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := &l.counters
	mirrorCounter(reg, "ctxres_conns_accepted_total", "Connections admitted to serving.", &c.accepted)
	mirrorCounter(reg, "ctxres_accept_retries_total", "Temporary Accept errors survived via backoff.", &c.acceptRetries)
	mirrorCounter(reg, "ctxres_conns_rejected_full_total", "Connections turned away over the max-conns cap.", &c.rejectedFull)
	mirrorCounter(reg, "ctxres_requests_total", "Request lines read, including malformed ones.", &c.requests)
	mirrorCounter(reg, "ctxres_bad_requests_total", "Unparseable request lines.", &c.badRequests)
	mirrorCounter(reg, "ctxres_frames_too_long_total", "Request lines over the line-length cap.", &c.framesTooLong)
	mirrorCounter(reg, "ctxres_idle_closed_total", "Connections reaped by the idle deadline.", &c.idleClosed)
	mirrorCounter(reg, "ctxres_read_errors_total", "Connections dropped on transport read errors.", &c.readErrors)
	reg.GaugeFunc("ctxres_uptime_seconds", "Seconds since the server started serving.",
		func() float64 { return time.Since(l.start).Seconds() })
	reg.GaugeFunc("ctxres_open_connections", "Connections currently tracked by the server.",
		func() float64 {
			l.mu.Lock()
			n := len(l.conns)
			l.mu.Unlock()
			return float64(n)
		})
}

func mirrorCounter(reg *telemetry.Registry, name, help string, v *atomic.Int64) {
	reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
}

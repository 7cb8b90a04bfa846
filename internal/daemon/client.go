package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// Client is a synchronous protocol client. It is safe for concurrent use;
// requests are serialized over one connection.
//
// The client is fault-tolerant: a transport failure (timeout, dropped
// connection, truncated frame) marks the connection broken, and the next
// attempt redials with capped exponential backoff. A broken connection is
// never reused, so a response delayed past a deadline can never be
// misread as the answer to a later request. Operations are retried up to
// MaxAttempts times; every protocol operation is safe to resend (ping,
// stats, situations, and use-latest are idempotent; re-using an ID is
// free; a resubmitted context whose first submission actually landed is
// rejected as a duplicate by the pool rather than applied twice).
type Client struct {
	addrs []string // primary address plus ClientOptions.Addrs fallbacks
	opts  ClientOptions

	mu sync.Mutex // serializes round trips

	stateMu      sync.Mutex // guards conn/closed/pump; nests inside mu
	addrIdx      int        // index of the last address that dialed successfully
	conn         *Conn      // carries the negotiated format; replaced on reconnect
	traceOK      bool       // server acked the hello trace offer; reset on reconnect
	closed       bool
	pump         *pumpState // owns reads on conn once subscriptions exist
	reconnecting bool       // a background reestablish goroutine is running

	subsMu sync.Mutex // guards subs; leaf lock, nests inside stateMu
	subs   map[string]subscription

	// sampler roots client-side traces (ClientOptions.TraceSample); nil
	// when client-side sampling is off.
	sampler *telemetry.Sampler
}

// subscription is the client-side record of one standing subscription,
// kept for automatic re-registration on reconnect.
type subscription struct {
	id      string
	name    string // named situation ("" for inline formula subs)
	formula string
	handler EventHandler
}

// EventHandler receives pushed situation transitions. Handlers run on the
// client's read goroutine (or, while a synchronous request is in flight,
// on that caller's goroutine): they must be fast and must not call back
// into the Client.
type EventHandler func(subID string, ev WireEvent)

// pumpState is the read-pump bookkeeping for one connection. Once a
// connection carries subscriptions, a pump goroutine owns all reads:
// push frames go to handlers, response frames to the (single, because
// round trips are serialized) waiting request.
type pumpState struct {
	conn    *Conn
	replies chan Response // cap 1; the one outstanding request's answer
	dead    chan struct{} // closed when the pump exits
}

// ClientOptions tunes a client's timeout and reconnect behavior.
type ClientOptions struct {
	// Timeout bounds each round-trip attempt (and the dial when no Dial
	// override is set). Zero means no per-attempt I/O deadline and a 10s
	// dial timeout.
	Timeout time.Duration
	// MaxAttempts is the total number of tries per operation, including
	// the first. Values < 1 mean the default of 3.
	MaxAttempts int
	// ReconnectBackoffMin/Max bound the capped exponential delay inserted
	// before each retry (defaults 10ms and 1s).
	ReconnectBackoffMin time.Duration
	ReconnectBackoffMax time.Duration
	// Addrs lists additional cluster addresses. A failed dial moves on to
	// the next address in rotation (primary first, then Addrs in order);
	// once an address accepts, the client sticks with it until the next
	// dial failure. Only dial failures rotate — an established connection
	// answering with an error never does, so retried operations keep
	// hitting the same node while it is up.
	Addrs []string
	// Role identifies the connection in the hello handshake (RoleFollower,
	// RoleRouter). A non-empty role forces the hello exchange even when the
	// wire format stays line-JSON. Empty means a plain client.
	Role string
	// Dial overrides the transport dialer; fault harnesses use this to
	// wrap connections (see internal/daemon/faultconn).
	Dial func(addr string) (net.Conn, error)
	// WireFormat selects the framing: "" or FormatJSON for line-delimited
	// JSON, FormatBinary for length-prefixed CRC-checked binary frames
	// (negotiated via OpHello on every connect, including transparent
	// reconnects). Connecting with FormatBinary to a server that does not
	// speak the hello op fails rather than silently downgrading.
	WireFormat string
	// Trace offers distributed tracing in the hello handshake (forcing the
	// hello exchange even on line-JSON connections). Trace context is
	// stamped on requests only after the server acks the offer — a server
	// without tracing configured declines, and the wire traffic stays
	// byte-identical to an untraced client's.
	Trace bool
	// TraceSample roots a fresh trace on this fraction (0..1] of
	// operations that carry no explicit trace context, letting a plain
	// client originate traces without a router in front. Setting it
	// implies Trace. Zero disables client-side sampling.
	TraceSample float64
	// OnSubscriptionLost is called (from the client's read goroutine) when
	// a subscription is terminally cancelled: the server shed this
	// connection as lagged (CodeSubscriberLagged), or a resubscription
	// after reconnect was refused. The subscription is NOT re-registered —
	// the typed shed is never retried. Nil disables the notification.
	OnSubscriptionLost func(subID string, err error)
}

// Client tuning defaults.
const (
	DefaultMaxAttempts         = 3
	DefaultReconnectBackoffMin = 10 * time.Millisecond
	DefaultReconnectBackoffMax = time.Second
)

// ErrClientClosed reports an operation on a closed client.
var ErrClientClosed = errors.New("daemon: client closed")

// RemoteError is a failure reported by the server (as opposed to a
// transport failure). The client never retries a RemoteError: the server
// answered, so resending the same request cannot change the outcome.
type RemoteError struct {
	// Code classifies the failure (CodeApp for middleware rejections,
	// CodeBadRequest/CodeFrameTooLong/CodeBusy for protocol trouble,
	// CodeStaleLeader for a fenced leader shedding writes).
	Code    Code
	Message string
	// Epoch is the fencing epoch a CodeStaleLeader rejection was issued
	// at (zero otherwise).
	Epoch uint64
	// Leader is the rejecting server's known-leader hint ("" when it has
	// none); a client holding cluster addresses dials it next.
	Leader string
}

// Error implements error.
func (e *RemoteError) Error() string { return "daemon: " + e.Message }

// ErrorCode extracts the protocol code from a failed operation, or ""
// when err is not a server-reported failure (transport errors carry no
// code). Use it to branch on typed rejections such as CodeOverloaded or
// CodeQuarantined without unwrapping the error chain by hand.
func ErrorCode(err error) Code {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return remote.Code
	}
	return ""
}

// Dial connects to a server. timeout bounds each round trip; zero means no
// deadline.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, ClientOptions{Timeout: timeout})
}

// DialOptions connects to a server with explicit tuning. The initial dial
// is eager so misconfiguration fails fast; later reconnects happen
// transparently inside each operation.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.ReconnectBackoffMin <= 0 {
		opts.ReconnectBackoffMin = DefaultReconnectBackoffMin
	}
	if opts.ReconnectBackoffMax < opts.ReconnectBackoffMin {
		opts.ReconnectBackoffMax = DefaultReconnectBackoffMax
	}
	if opts.Dial == nil {
		timeout := opts.Timeout
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout(timeout))
		}
	}
	addrs := make([]string, 0, 1+len(opts.Addrs))
	if addr != "" {
		addrs = append(addrs, addr)
	}
	addrs = append(addrs, opts.Addrs...)
	if len(addrs) == 0 {
		return nil, errors.New("daemon: dial: no addresses")
	}
	if opts.TraceSample > 0 {
		opts.Trace = true
	}
	c := &Client{addrs: addrs, opts: opts, subs: make(map[string]subscription),
		sampler: telemetry.NewSampler(opts.TraceSample)}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func dialTimeout(t time.Duration) time.Duration {
	if t <= 0 {
		return 10 * time.Second
	}
	return t
}

// connect dials a fresh connection, negotiates the wire format when one
// is requested, and installs the connection as current. Negotiation runs
// before installation, so a half-negotiated stream can never serve a
// request. With multiple addresses configured, a refused dial rotates to
// the next address, starting from the last one that worked.
func (c *Client) connect() error {
	nc, err := c.dialNext()
	if err != nil {
		return err
	}
	conn := NewConn(nc)
	traceOK := false
	if c.opts.WireFormat == FormatBinary || c.opts.Role != "" || c.opts.Trace {
		traceOK, err = c.hello(conn)
		if err != nil {
			_ = conn.Close()
			return err
		}
	}
	// Replay standing subscriptions before the connection serves requests,
	// mirroring the hello renegotiation: a reconnect transparently
	// re-registers them. A typed refusal (the server restarted without the
	// situation, hit its cap, ...) drops that one subscription — with
	// OnSubscriptionLost notification — instead of failing the connection.
	for _, sub := range c.snapshotSubs() {
		req := Request{Op: OpSubscribe, SubID: sub.id, Situation: sub.name, Formula: sub.formula}
		if _, err := c.exchangeOn(conn, req); err != nil {
			var remote *RemoteError
			if errors.As(err, &remote) {
				c.forgetSub(sub.id, err)
				continue
			}
			_ = conn.Close()
			return err
		}
	}
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.closed {
		_ = conn.Close()
		return ErrClientClosed
	}
	c.conn, c.traceOK = conn, traceOK
	c.startPumpLocked()
	return nil
}

// snapshotSubs copies the registered subscriptions in a stable order.
func (c *Client) snapshotSubs() []subscription {
	c.subsMu.Lock()
	defer c.subsMu.Unlock()
	out := make([]subscription, 0, len(c.subs))
	for _, sub := range c.subs {
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// forgetSub terminally removes a subscription and notifies the loss
// callback.
func (c *Client) forgetSub(id string, err error) {
	c.subsMu.Lock()
	_, had := c.subs[id]
	delete(c.subs, id)
	c.subsMu.Unlock()
	if had && c.opts.OnSubscriptionLost != nil {
		c.opts.OnSubscriptionLost(id, err)
	}
}

// startPumpLocked hands the connection's reads to a pump goroutine when
// subscriptions exist, so pushes flow without a request in flight. Called
// with stateMu held and a live conn installed.
func (c *Client) startPumpLocked() {
	if c.pump != nil || c.conn == nil {
		return
	}
	c.subsMu.Lock()
	n := len(c.subs)
	c.subsMu.Unlock()
	if n == 0 {
		return
	}
	// The pump blocks in reads indefinitely (pushes may be sparse);
	// per-request timeouts are enforced by timers in exchangePumped.
	_ = SetConnDeadline(c.conn, 0)
	p := &pumpState{conn: c.conn, replies: make(chan Response, 1), dead: make(chan struct{})}
	c.pump = p
	go c.pumpLoop(p)
}

// pumpLoop owns all reads on one connection: pushes are dispatched to
// handlers, responses handed to the waiting request. Any read failure
// retires the connection; if subscriptions remain, a background reconnect
// re-establishes them.
func (c *Client) pumpLoop(p *pumpState) {
	defer c.retirePump(p)
	for {
		body, err := p.conn.ReadFrame()
		if err != nil {
			return
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		if resp.Push {
			c.dispatchPush(resp)
			continue
		}
		select {
		case p.replies <- resp:
		default:
			// No request waiting: an unsolicited response. The stream can
			// no longer be trusted to pair requests with responses.
			return
		}
	}
}

func (c *Client) retirePump(p *pumpState) {
	c.stateMu.Lock()
	if c.pump == p {
		c.pump = nil
	}
	c.stateMu.Unlock()
	close(p.dead)
	c.dropConn(p.conn)
	c.maybeReestablish()
}

// dispatchPush routes one push frame: a terminal typed failure cancels
// every subscription (never retried); an event goes to its handler.
func (c *Client) dispatchPush(resp Response) {
	if !resp.OK {
		err := &RemoteError{Code: resp.Code, Message: resp.Error}
		for _, sub := range c.snapshotSubs() {
			c.forgetSub(sub.id, err)
		}
		return
	}
	if resp.Event == nil {
		return
	}
	c.subsMu.Lock()
	sub, ok := c.subs[resp.SubID]
	c.subsMu.Unlock()
	if ok && sub.handler != nil {
		sub.handler(resp.SubID, *resp.Event)
	}
}

// maybeReestablish starts (at most one) background reconnect loop so
// subscribers keep receiving pushes without waiting for the next
// synchronous request to trigger a reconnect.
func (c *Client) maybeReestablish() {
	c.stateMu.Lock()
	if c.closed || c.reconnecting {
		c.stateMu.Unlock()
		return
	}
	c.subsMu.Lock()
	n := len(c.subs)
	c.subsMu.Unlock()
	if n == 0 {
		c.stateMu.Unlock()
		return
	}
	c.reconnecting = true
	c.stateMu.Unlock()
	go c.reestablish()
}

func (c *Client) reestablish() {
	backoff := c.opts.ReconnectBackoffMin
	for {
		time.Sleep(backoff)
		backoff *= 2
		if backoff > c.opts.ReconnectBackoffMax {
			backoff = c.opts.ReconnectBackoffMax
		}
		if c.isClosed() {
			break
		}
		c.subsMu.Lock()
		n := len(c.subs)
		c.subsMu.Unlock()
		if n == 0 {
			break
		}
		c.mu.Lock()
		connected := c.current() != nil
		if !connected {
			connected = c.connect() == nil
		}
		c.mu.Unlock()
		if connected {
			break
		}
	}
	c.stateMu.Lock()
	c.reconnecting = false
	dead := c.conn == nil
	c.stateMu.Unlock()
	// The pump may have died again while the flag was still set; re-check
	// so no gap goes unrepaired.
	if dead {
		c.maybeReestablish()
	}
}

// rotateAddr advances the dial rotation off the current address after a
// stale-leader rejection: the next connect prefers the rejection's
// leader hint when it names a configured address, otherwise simply the
// next address in rotation.
func (c *Client) rotateAddr(hint string) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if hint != "" {
		for i, a := range c.addrs {
			if a == hint {
				c.addrIdx = i
				return
			}
		}
	}
	if len(c.addrs) > 1 {
		c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	}
}

// dialNext dials the cluster addresses in rotation starting from the
// last successful one, sticking with the first that accepts.
func (c *Client) dialNext() (net.Conn, error) {
	c.stateMu.Lock()
	start := c.addrIdx
	c.stateMu.Unlock()
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (start + i) % len(c.addrs)
		conn, err := c.opts.Dial(c.addrs[idx])
		if err != nil {
			lastErr = fmt.Errorf("daemon: dial %s: %w", c.addrs[idx], err)
			continue
		}
		c.stateMu.Lock()
		c.addrIdx = idx
		c.stateMu.Unlock()
		return conn, nil
	}
	return nil, lastErr
}

// hello performs the line-JSON handshake on a fresh connection,
// negotiating the wire format, declaring the connection's role, and —
// when the client offers tracing — learning whether the server will
// honor trace context. Both sides speak the negotiated format only after
// the ack. A declined trace offer is not an error: the client simply
// never stamps trace fields on this connection.
func (c *Client) hello(conn *Conn) (trace bool, err error) {
	want := c.opts.WireFormat
	if want == "" {
		want = FormatJSON
	}
	resp, err := c.exchangeOn(conn,
		Request{Op: OpHello, Format: want, Role: c.opts.Role, Trace: c.opts.Trace})
	if err != nil {
		return false, fmt.Errorf("daemon: hello: %w", err)
	}
	if resp.Format != want {
		return false, fmt.Errorf("daemon: hello: server negotiated format %q, want %q",
			resp.Format, want)
	}
	conn.SetFormat(resp.Format)
	return resp.Trace, nil
}

// current returns the live connection, or nil when broken/unconnected.
func (c *Client) current() *Conn {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.conn
}

// traceAllowed reports whether the current connection negotiated trace
// propagation in its hello.
func (c *Client) traceAllowed() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.traceOK
}

// dropConn discards conn (if still current) so no later attempt can read
// a stale half-delivered response off its stream.
func (c *Client) dropConn(conn *Conn) {
	c.stateMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.stateMu.Unlock()
	_ = conn.Close()
}

func (c *Client) isClosed() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.closed
}

// Close closes the connection. Close may be called concurrently with an
// in-flight operation; that operation fails with ErrClientClosed.
func (c *Client) Close() error {
	c.stateMu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.stateMu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(req)
}

func (c *Client) roundTripLocked(req Request) (Response, error) {
	var lastErr error
	backoff := c.opts.ReconnectBackoffMin
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > c.opts.ReconnectBackoffMax {
				backoff = c.opts.ReconnectBackoffMax
			}
		}
		if c.isClosed() {
			return Response{}, ErrClientClosed
		}
		conn := c.current()
		if conn == nil {
			if err := c.connect(); err != nil {
				if errors.Is(err, ErrClientClosed) {
					return Response{}, err
				}
				lastErr = err
				continue
			}
			conn = c.current()
		}
		if req.TraceID != "" && !c.traceAllowed() {
			// The connection's hello did not negotiate tracing (the server
			// declined, or this is an untraced reconnect): send the request
			// untraced rather than leak fields the server never agreed to.
			req.TraceID, req.SpanID = "", ""
		}
		resp, err := c.exchange(conn, req)
		if err == nil {
			return resp, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			if remote.Code == CodeStaleLeader {
				// A fenced leader answered: this address cannot serve writes
				// until it rejoins. Drop the connection and rotate so the next
				// dial lands on the promoted member (the rejection's leader
				// hint when it names a configured address). The error itself
				// is still never retried — resending to the same deposed
				// leader cannot change the outcome.
				c.dropConn(conn)
				c.rotateAddr(remote.Leader)
			}
			return Response{}, err
		}
		// Transport failure: the old stream may still hold (part of) a
		// response, so it must never serve another request.
		c.dropConn(conn)
		if c.isClosed() {
			return Response{}, ErrClientClosed
		}
		lastErr = err
	}
	return Response{}, fmt.Errorf("daemon: giving up after %d attempts: %w",
		c.opts.MaxAttempts, lastErr)
}

// exchange performs one request/response on conn, routing through the
// read pump when one owns the connection's reads.
func (c *Client) exchange(conn *Conn, req Request) (Response, error) {
	c.stateMu.Lock()
	p := c.pump
	if p != nil && p.conn != conn {
		p = nil
	}
	c.stateMu.Unlock()
	if p != nil {
		return c.exchangePumped(p, req)
	}
	return c.exchangeOn(conn, req)
}

// exchangeOn performs one request/response over conn. Push frames
// arriving between the request and its response are dispatched inline and
// skipped — the Push tag is what keeps server-initiated events from ever
// desyncing the pairing. Any I/O error leaves the stream in an unknown
// position; the caller must drop the connection rather than reuse it
// (roundTrip does), so a truncated frame can never desync a later
// request.
func (c *Client) exchangeOn(conn *Conn, req Request) (Response, error) {
	if err := SetConnDeadline(conn, c.opts.Timeout); err != nil {
		return Response{}, fmt.Errorf("daemon: set deadline: %w", err)
	}
	if err := writeRequest(conn, req, 0); err != nil {
		return Response{}, err
	}
	for {
		body, err := conn.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return Response{}, errors.New("daemon: connection closed")
			}
			return Response{}, fmt.Errorf("daemon: read: %w", err)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return Response{}, fmt.Errorf("daemon: decode response: %w", err)
		}
		if resp.Push {
			c.dispatchPush(resp)
			continue
		}
		return resp, remoteErr(resp)
	}
}

func writeRequest(conn *Conn, req Request, timeout time.Duration) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("daemon: marshal request: %w", err)
	}
	if err := conn.WriteFrame(payload, timeout); err != nil {
		return fmt.Errorf("daemon: write: %w", err)
	}
	return nil
}

// remoteErr is the RemoteError a failed response carries, or nil.
func remoteErr(resp Response) error {
	if resp.OK {
		return nil
	}
	return &RemoteError{Code: resp.Code, Message: resp.Error, Epoch: resp.Epoch, Leader: resp.Leader}
}

// exchangePumped writes the request and waits for the pump to hand back
// the response. A timeout or pump death is a transport failure: roundTrip
// drops the connection, so a late response can never be misread as the
// answer to a later request.
func (c *Client) exchangePumped(p *pumpState, req Request) (Response, error) {
	if err := writeRequest(p.conn, req, c.opts.Timeout); err != nil {
		return Response{}, err
	}
	var timeout <-chan time.Time
	if c.opts.Timeout > 0 {
		t := time.NewTimer(c.opts.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp := <-p.replies:
		return resp, remoteErr(resp)
	case <-timeout:
		return Response{}, errors.New("daemon: timed out awaiting response")
	case <-p.dead:
		return Response{}, errors.New("daemon: connection closed")
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: OpPing})
	return err
}

// traceFor resolves the trace context an operation is sent under: an
// explicit trace is forwarded as-is; otherwise the client-side sampler
// (ClientOptions.TraceSample) may root a fresh trace. Zero overhead when
// neither applies.
func (c *Client) traceFor(tr telemetry.TraceContext) telemetry.TraceContext {
	if tr.Sampled() || c.sampler == nil {
		return tr
	}
	if c.sampler.Sample() {
		return telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	}
	return tr
}

// Submit sends a context addition change and returns the inconsistencies
// it introduced.
func (c *Client) Submit(cc *ctx.Context) ([]WireViolation, error) {
	return c.SubmitTrace(cc, 0, telemetry.TraceContext{})
}

// SubmitTrace submits under an explicit trace context (and optional
// deadline budget, as SubmitBudget): the server's pipeline spans join
// the caller's trace, with tr's span as their parent. Routers use it to
// make every shard hop a child span of the gateway's. The zero
// TraceContext degrades to plain sampling behavior.
func (c *Client) SubmitTrace(cc *ctx.Context, budget time.Duration, tr telemetry.TraceContext) ([]WireViolation, error) {
	req := Request{Op: OpSubmit, Context: cc}
	if budget > 0 {
		req.TimeoutMillis = int64(budget / time.Millisecond)
	}
	tr = c.traceFor(tr)
	req.TraceID, req.SpanID = tr.TraceID, tr.SpanID
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return resp.Violations, nil
}

// SubmitBudget submits a context with a deadline budget: if the server
// cannot start the work within the budget it sheds the submission with
// CodeOverloaded instead of queueing it. A typed rejection is a
// RemoteError and is never retried (a shed submission resent immediately
// would only deepen the overload); check ErrorCode(err) for
// CodeOverloaded and back off before resubmitting.
func (c *Client) SubmitBudget(cc *ctx.Context, budget time.Duration) ([]WireViolation, error) {
	return c.SubmitTrace(cc, budget, telemetry.TraceContext{})
}

// SubmitBatch submits contexts in one round trip and returns their
// per-item outcomes, index-aligned with cs. budget applies to the whole
// batch the way SubmitBudget's does to one submission; zero means no
// deadline. A batch-level error (transport trouble, overload shedding the
// whole request) is returned as err; per-item failures — duplicates, open
// circuit breakers — land in their BatchResult instead, so one bad
// context never hides the other outcomes. Like Submit, a retried batch
// whose first attempt actually landed reports duplicates per item rather
// than applying anything twice.
func (c *Client) SubmitBatch(cs []*ctx.Context, budget time.Duration) ([]BatchResult, error) {
	return c.SubmitBatchTrace(cs, budget, telemetry.TraceContext{})
}

// SubmitBatchTrace is SubmitBatch under an explicit trace context; every
// item's pipeline spans join the caller's trace.
func (c *Client) SubmitBatchTrace(cs []*ctx.Context, budget time.Duration, tr telemetry.TraceContext) ([]BatchResult, error) {
	req := Request{Op: OpBatchSubmit, Contexts: cs}
	if budget > 0 {
		req.TimeoutMillis = int64(budget / time.Millisecond)
	}
	tr = c.traceFor(tr)
	req.TraceID, req.SpanID = tr.TraceID, tr.SpanID
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Use performs a context deletion change for the identified context.
func (c *Client) Use(id ctx.ID) (*ctx.Context, error) {
	return c.UseTrace(id, telemetry.TraceContext{})
}

// UseTrace is Use under an explicit trace context.
func (c *Client) UseTrace(id ctx.ID, tr telemetry.TraceContext) (*ctx.Context, error) {
	req := Request{Op: OpUse, ID: id}
	tr = c.traceFor(tr)
	req.TraceID, req.SpanID = tr.TraceID, tr.SpanID
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return resp.Context, nil
}

// UseLatest uses the newest available context of the given kind/subject.
func (c *Client) UseLatest(kind ctx.Kind, subject string) (*ctx.Context, error) {
	return c.UseLatestTrace(kind, subject, telemetry.TraceContext{})
}

// UseLatestTrace is UseLatest under an explicit trace context.
func (c *Client) UseLatestTrace(kind ctx.Kind, subject string, tr telemetry.TraceContext) (*ctx.Context, error) {
	req := Request{Op: OpUseLatest, Kind: kind, Subject: subject}
	tr = c.traceFor(tr)
	req.TraceID, req.SpanID = tr.TraceID, tr.SpanID
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	return resp.Context, nil
}

// Provenance fetches the newest resolution-provenance events retained by
// the server's ring, newest first; limit caps the count (0 = all
// retained). Servers running without provenance answer with an
// application error.
func (c *Client) Provenance(limit int) ([]telemetry.ResolutionEvent, error) {
	resp, err := c.roundTrip(Request{Op: OpProvenance, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Provenance, nil
}

// Stats fetches middleware and pool counters.
func (c *Client) Stats() (middleware.Stats, pool.Stats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return middleware.Stats{}, pool.Stats{}, err
	}
	var mw middleware.Stats
	var pl pool.Stats
	if resp.Middleware != nil {
		mw = *resp.Middleware
	}
	if resp.Pool != nil {
		pl = *resp.Pool
	}
	return mw, pl, nil
}

// JournalStats fetches the write-ahead log counters; nil when the daemon
// runs without durability.
func (c *Client) JournalStats() (*wal.Stats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Journal, nil
}

// ServerStats fetches the daemon's transport counters.
func (c *Client) ServerStats() (ServerStats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return ServerStats{}, err
	}
	if resp.Daemon == nil {
		return ServerStats{}, nil
	}
	return *resp.Daemon, nil
}

// Telemetry fetches the daemon's telemetry snapshot (counters, gauges,
// and histogram summaries); nil when the daemon runs without telemetry.
func (c *Client) Telemetry() (*telemetry.Snapshot, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Telemetry, nil
}

// Resilience fetches the middleware's overload-resilience counters and
// the per-source circuit-breaker snapshot (nil when the daemon runs
// without health tracking).
func (c *Client) Resilience() (middleware.ResilienceStats, *health.Snapshot, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return middleware.ResilienceStats{}, nil, err
	}
	var rs middleware.ResilienceStats
	if resp.Resilience != nil {
		rs = *resp.Resilience
	}
	return rs, resp.Health, nil
}

// Situations fetches the current activation state of every situation.
func (c *Client) Situations() (map[string]bool, error) {
	resp, err := c.roundTrip(Request{Op: OpSituations})
	if err != nil {
		return nil, err
	}
	return resp.Active, nil
}

// Subscribe registers a standing subscription to a named situation: the
// server pushes every activation/deactivation transition to h without
// polling. The subscription is automatically re-registered on transparent
// reconnects (mirroring the wire-format renegotiation) until Unsubscribe
// — with one exception: a connection shed as lagged (CodeSubscriberLagged)
// terminally cancels its subscriptions, reported via OnSubscriptionLost
// and never retried.
func (c *Client) Subscribe(subID, situationName string, h EventHandler) error {
	if situationName == "" {
		return errors.New("daemon: subscribe: missing situation name")
	}
	return c.subscribe(subscription{id: subID, name: situationName, handler: h})
}

// SubscribeFormula registers a standing subscription to an inline closed
// formula of the constraint language, compiled server-side and evaluated
// over the pool's available view. Events carry the subscription ID as
// their situation label.
func (c *Client) SubscribeFormula(subID, formula string, h EventHandler) error {
	if formula == "" {
		return errors.New("daemon: subscribe: missing formula")
	}
	return c.subscribe(subscription{id: subID, formula: formula, handler: h})
}

func (c *Client) subscribe(sub subscription) error {
	if sub.id == "" {
		return errors.New("daemon: subscribe: missing subscription id")
	}
	c.subsMu.Lock()
	_, dup := c.subs[sub.id]
	c.subsMu.Unlock()
	if dup {
		return &RemoteError{Code: CodeDupSubscription,
			Message: fmt.Sprintf("subscription %q already registered", sub.id)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	req := Request{Op: OpSubscribe, SubID: sub.id, Situation: sub.name, Formula: sub.formula}
	if _, err := c.roundTripLocked(req); err != nil {
		return err
	}
	c.subsMu.Lock()
	c.subs[sub.id] = sub
	c.subsMu.Unlock()
	// Hand reads to the pump so pushes flow without a request in flight.
	c.stateMu.Lock()
	if !c.closed {
		c.startPumpLocked()
	}
	c.stateMu.Unlock()
	return nil
}

// Unsubscribe removes a subscription. It is removed locally first — so a
// reconnect mid-call cannot resurrect it — then deregistered server-side;
// a server that no longer knows the ID (the connection was replaced or
// shed in between) counts as success. Events queued server-side before
// the ack may still be delivered to the handler.
func (c *Client) Unsubscribe(subID string) error {
	c.subsMu.Lock()
	_, had := c.subs[subID]
	delete(c.subs, subID)
	c.subsMu.Unlock()
	if !had {
		return fmt.Errorf("daemon: unsubscribe: unknown subscription %q", subID)
	}
	_, err := c.roundTrip(Request{Op: OpUnsubscribe, SubID: subID})
	var remote *RemoteError
	if errors.As(err, &remote) {
		return nil
	}
	return err
}

// Package daemon exposes a middleware instance over TCP, realizing the
// paper's setting of distributed context sources feeding one management
// service: sources connect and submit contexts; applications connect and
// use contexts and query situations.
//
// The protocol is one JSON request object per frame and one response
// object per frame over a plain TCP connection; a frame is a line, or
// after a hello a length+CRC-prefixed block (Conn is the only code that
// knows which). It is deliberately simple — the paper's contribution is
// the resolution service, not the transport.
package daemon

import (
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/health"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// Op names the request operations.
type Op string

// Supported operations.
const (
	OpPing        Op = "ping"
	OpSubmit      Op = "submit"
	OpBatchSubmit Op = "batch-submit"
	OpUse         Op = "use"
	OpUseLatest   Op = "use-latest"
	OpStats       Op = "stats"
	OpSituations  Op = "situations"
	// OpHello negotiates the wire format. It is always sent (and answered)
	// as a line-JSON request — the first thing on a fresh connection — and
	// when the server acks format "binary" both sides switch to
	// length-prefixed binary frames for every subsequent message. A server
	// that predates the op answers with an unknown-op error and the
	// connection stays line-JSON capable.
	OpHello Op = "hello"
	// OpSubscribe registers a standing subscription on this connection:
	// either a named situation (Request.Situation) or an inline formula of
	// the constraint language (Request.Formula, compiled server-side). The
	// server then pushes an event frame — a Response with Push set — on
	// every activation/deactivation transition, interleaved between
	// request/response pairs on the same connection. Subscription IDs are
	// scoped to the connection; renegotiating the wire format after a
	// subscribe is refused.
	OpSubscribe Op = "subscribe"
	// OpUnsubscribe removes a subscription by ID. Events already queued
	// when the ack is written may still be delivered; no new transitions
	// are pushed after it.
	OpUnsubscribe Op = "unsubscribe"
	// OpProvenance returns the newest entries of the server's bounded
	// resolution-provenance ring: one ResolutionEvent per violation the
	// strategy resolved, naming the constraint, the strategy, the
	// violating binding, the discarded contexts, and the trace that
	// triggered it. Request.Limit caps the count (0 = all retained). A
	// router answering the op scatters it to every shard and merges the
	// events. Refused (unknown-op) by servers running without provenance.
	OpProvenance Op = "provenance"
	// OpReplicate turns the connection into a replication stream: the
	// server acks, then pushes every journal record with sequence >
	// Request.FromSeq as Response{Push:true, Repl:...} frames — interleaved
	// with snapshot offers and heartbeats — until either side closes. The
	// requester is a follower daemon (see internal/cluster); the op is
	// refused unless the server was started with WithReplicationSource.
	// No requests other than OpReplAck are read on the connection after
	// the ack.
	OpReplicate Op = "replicate"
	// OpReplAck is the follower's periodic position report on a live
	// replication stream: a binary Request frame (never acked — the stream
	// flows leader-to-follower) whose FromSeq is the follower's last
	// locally appended sequence. It doubles as the leader's lease renewal:
	// a leader running with -lease-ttl fences itself (sheds writes with
	// CodeStaleLeader) once acks stop arriving within the TTL.
	OpReplAck Op = "repl-ack"
)

// Connection roles carried by OpHello. A follower or router connection is
// exempt from the idle read deadline: followers legitimately never write
// after the replicate request, and a router's fan-out connections idle
// between bursts without being dead.
const (
	RoleClient   = "client"
	RoleFollower = "follower"
	RoleRouter   = "router"
)

// Wire format names carried by OpHello.
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// MaxBatchContexts bounds one batch-submit request, so a single frame
// cannot queue unbounded work (the frame size bound applies too).
const MaxBatchContexts = 1024

// Code classifies a failed response so clients can tell protocol-level
// trouble (framing, overload) apart from application-level rejections
// (middleware errors such as "context not found").
type Code string

// Error codes.
const (
	// CodeApp is an application-level error: the request was well-formed
	// but the middleware refused it. Retrying without changing the request
	// will not help.
	CodeApp Code = "app"
	// CodeBadRequest is an unparseable request line.
	CodeBadRequest Code = "bad-request"
	// CodeFrameTooLong is a request line exceeding MaxLineBytes. The server
	// answers with this code and then closes the connection, since the
	// stream can no longer be re-synchronized to a line boundary.
	CodeFrameTooLong Code = "frame-too-long"
	// CodeBusy is returned (followed by a close) to connections accepted
	// over the server's max-connections cap.
	CodeBusy Code = "server-busy"
	// CodeOverloaded is a submission shed by admission control: the
	// middleware's pending queue was full, or the work would have started
	// past the client's deadline budget. The context was NOT applied.
	// Retrying immediately only adds load; back off first.
	CodeOverloaded Code = "overloaded"
	// CodeQuarantined is a submission acknowledged but dropped because its
	// source's circuit breaker is open (the source recently produced too
	// many bad/inconsistent/expired contexts). The breaker re-probes the
	// source automatically; healthy submissions resume on recovery.
	CodeQuarantined Code = "source-quarantined"
	// CodeCheckTimeout is a submission or use aborted by the check
	// watchdog: the consistency check or strategy callback ran past its
	// timeout or panicked. The operation was rolled back.
	CodeCheckTimeout Code = "check-timeout"
	// CodeSubscriberLagged is pushed (best-effort, then the connection is
	// closed) to a subscriber whose event queue overflowed because it was
	// not draining pushes fast enough. All of the connection's
	// subscriptions were cancelled server-side. Like the other typed
	// sheds, it is never retried automatically: blindly resubscribing a
	// consumer that cannot keep up only rebuilds the backlog.
	CodeSubscriberLagged Code = "subscriber-lagged"
	// CodeDupSubscription rejects an OpSubscribe whose ID is already
	// registered on the same connection.
	CodeDupSubscription Code = "duplicate-subscription"
	// CodeNotFound rejects a use/use-latest for a context the pool does
	// not hold: never submitted, already consumed, or swept. Routing
	// layers rely on it to tell "this shard has no match" from a failure.
	CodeNotFound Code = "not-found"
	// CodeStaleLeader rejects a state-changing operation on a fenced
	// leader: its lease expired (no follower acks within -lease-ttl), so
	// a promoted follower may already be serving the same data under a
	// higher epoch. The response carries the fenced node's Epoch and,
	// when known, a Leader hint. Like the other typed sheds it is never
	// retried against the same address — the client rotates to the next
	// configured address instead, which is where the promoted member
	// lives. Read-only operations keep being served.
	CodeStaleLeader Code = "stale-leader"
)

// Request is one client request.
type Request struct {
	Op Op `json:"op"`
	// Context is the submitted context (OpSubmit).
	Context *ctx.Context `json:"context,omitempty"`
	// Contexts are the submitted contexts, in order (OpBatchSubmit).
	Contexts []*ctx.Context `json:"contexts,omitempty"`
	// ID selects a context (OpUse).
	ID ctx.ID `json:"id,omitempty"`
	// Kind and Subject select the newest matching context (OpUseLatest).
	Kind    ctx.Kind `json:"kind,omitempty"`
	Subject string   `json:"subject,omitempty"`
	// TimeoutMillis is the client's deadline budget for OpSubmit and
	// OpBatchSubmit: work that would start more than this many
	// milliseconds after the server reads the request is shed with
	// CodeOverloaded instead of queued. Zero means no deadline.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Format is the requested wire format (OpHello): FormatJSON or
	// FormatBinary.
	Format string `json:"format,omitempty"`
	// Role declares what the connection is for (OpHello): "", RoleClient,
	// RoleFollower, or RoleRouter. Follower and router connections are
	// exempt from the idle read deadline.
	Role string `json:"role,omitempty"`
	// FromSeq is the requester's last locally durable journal sequence
	// (OpReplicate): the stream resumes at FromSeq+1. Zero asks for the
	// full log (served from the newest snapshot when the leader has
	// pruned earlier segments).
	FromSeq uint64 `json:"fromSeq,omitempty"`
	// SubID names a subscription on this connection (OpSubscribe /
	// OpUnsubscribe).
	SubID string `json:"subId,omitempty"`
	// Situation subscribes to a named situation registered with the
	// server's engine (OpSubscribe).
	Situation string `json:"situation,omitempty"`
	// Formula subscribes to an inline closed formula of the constraint
	// language, evaluated over the pool's available view (OpSubscribe).
	// Exactly one of Situation and Formula must be set.
	Formula string `json:"formula,omitempty"`
	// Trace offers distributed tracing (OpHello): the client is willing to
	// stamp trace context on requests. The server acks with Response.Trace
	// true only when tracing is configured on its side (a span sink is
	// installed); clients must not send TraceID/SpanID unless acked, so
	// peers without tracing exchange byte-identical wire traffic.
	Trace bool `json:"trace,omitempty"`
	// TraceID/SpanID carry the caller's trace context on traced
	// operations: the 32-hex-digit trace ID and the 16-hex-digit ID of the
	// caller's span, which becomes the parent of the span the server opens
	// for this request. Empty on untraced requests (the fields then do not
	// appear on the wire at all).
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
	// Limit caps how many provenance events to return (OpProvenance);
	// zero means all retained events.
	Limit int `json:"limit,omitempty"`
}

// WireViolation is a violation with context IDs only (contexts stay on the
// server).
type WireViolation struct {
	Constraint string   `json:"constraint"`
	Contexts   []ctx.ID `json:"contexts"`
}

func toWire(vios []constraint.Violation) []WireViolation {
	out := make([]WireViolation, 0, len(vios))
	for _, v := range vios {
		w := WireViolation{Constraint: v.Constraint}
		for _, c := range v.Link.Contexts() {
			w.Contexts = append(w.Contexts, c.ID)
		}
		out = append(out, w)
	}
	return out
}

// Response is one server response.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code classifies the failure when OK is false.
	Code Code `json:"code,omitempty"`
	// Violations reports the inconsistencies a submission introduced.
	Violations []WireViolation `json:"violations,omitempty"`
	// Context is the delivered context (OpUse / OpUseLatest).
	Context *ctx.Context `json:"context,omitempty"`
	// Middleware, Pool, and Daemon are counter snapshots (OpStats).
	// Journal carries the write-ahead log counters when durability is
	// enabled.
	Middleware *middleware.Stats `json:"middleware,omitempty"`
	Pool       *pool.Stats       `json:"pool,omitempty"`
	Daemon     *ServerStats      `json:"daemon,omitempty"`
	Journal    *wal.Stats        `json:"journal,omitempty"`
	// Telemetry is the registry snapshot — counters, gauges, and
	// histogram summaries — when the server runs with WithTelemetry.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Resilience carries the overload-resilience counters (OpStats):
	// shed, quarantined, and watchdog-aborted operations.
	Resilience *middleware.ResilienceStats `json:"resilience,omitempty"`
	// Health is the per-source circuit-breaker snapshot (OpStats); nil
	// when the middleware runs without health tracking.
	Health *health.Snapshot `json:"health,omitempty"`
	// Active maps situation names to their current activation (OpSituations).
	Active map[string]bool `json:"active,omitempty"`
	// Results are the per-item outcomes of a batch submission, index-
	// aligned with Request.Contexts (OpBatchSubmit).
	Results []BatchResult `json:"results,omitempty"`
	// Format echoes the negotiated wire format (OpHello).
	Format string `json:"format,omitempty"`
	// Push tags a server-initiated frame. Both wire formats frame pushes
	// exactly like responses (one JSON object per line / per binary
	// frame), and the server serializes all writes on a connection, so a
	// push can never split or reorder a request's response — clients route
	// each decoded frame by this flag. A push frame carries either an
	// Event (with the SubID it belongs to) or, with OK false, a terminal
	// typed failure such as CodeSubscriberLagged.
	Push bool `json:"push,omitempty"`
	// SubID identifies the subscription a push frame belongs to; it also
	// echoes the ID on subscribe/unsubscribe acks.
	SubID string `json:"subId,omitempty"`
	// Event is the pushed situation transition.
	Event *WireEvent `json:"event,omitempty"`
	// Repl is a replication stream frame (pushed after an OpReplicate ack).
	Repl *ReplFrame `json:"repl,omitempty"`
	// Router carries the shard router's counters when the stats op is
	// answered by a ctxmwd -router gateway rather than a shard daemon.
	Router *RouterStats `json:"router,omitempty"`
	// Trace acks the hello trace offer: true when the server has tracing
	// configured and will honor TraceID/SpanID on requests.
	Trace bool `json:"trace,omitempty"`
	// TraceID echoes the trace a traced request was recorded under (the
	// server roots a new trace for sampled untraced requests), so a
	// client can log the ID to correlate with server-side span files.
	TraceID string `json:"traceId,omitempty"`
	// Provenance carries the resolution-provenance events (OpProvenance),
	// newest first.
	Provenance []telemetry.ResolutionEvent `json:"provenance,omitempty"`
	// Epoch is the serving node's fencing epoch, stamped on hello acks and
	// stale-leader rejections when the server runs with a fence (omitted
	// — byte-identical wire traffic — otherwise). Routers use it to
	// follow promotions: the member announcing the highest epoch is the
	// current leader of a replica set.
	Epoch uint64 `json:"epoch,omitempty"`
	// Leader is the fenced node's best known current-leader address on a
	// stale-leader rejection ("" when unknown).
	Leader string `json:"leader,omitempty"`
}

// ReplFrame is one frame of a replication stream. Exactly one of Record,
// Snapshot, and Heartbeat is set: a record to append verbatim to the
// follower's journal, a snapshot offer (the leader checkpointed, or the
// follower asked for a prefix the leader has pruned), or a liveness
// heartbeat carrying the leader's positions for lag accounting.
type ReplFrame struct {
	Record    *wal.Record    `json:"record,omitempty"`
	Snapshot  *wal.Snapshot  `json:"snapshot,omitempty"`
	Heartbeat *ReplHeartbeat `json:"heartbeat,omitempty"`
}

// ReplHeartbeat reports the leader's journal positions to a follower.
type ReplHeartbeat struct {
	// LastSeq is the leader's last appended sequence; the follower's
	// record lag is LastSeq minus its own last local sequence.
	LastSeq uint64 `json:"lastSeq"`
	// DurableSeq is the leader's highest fsynced sequence.
	DurableSeq uint64 `json:"durableSeq"`
	// PendingBytes is the framed byte volume queued for this follower but
	// not yet written to the stream — the exact byte lag of the queued
	// part (in-flight network bytes are not included).
	PendingBytes int64 `json:"pendingBytes,omitempty"`
	// Epoch is the leader's fencing epoch (0 — omitted — until a
	// promotion anywhere in the chain bumps it).
	Epoch uint64 `json:"epoch,omitempty"`
}

// RouterStats is the shard router's counter snapshot, exposed through
// the stats op and /metrics of a ctxmwd -router gateway.
type RouterStats struct {
	// Routed counts operations sent to exactly the owning shard.
	Routed int64 `json:"routed"`
	// Scattered counts operations fanned out beyond the owning shard:
	// submissions of spanning-constraint kinds mirrored to every shard,
	// and reads that had to probe multiple shards.
	Scattered int64 `json:"scattered"`
	// SpanningConstraints names the constraints that could not be proven
	// source-local (constraint.SourceLocal) and therefore force the
	// mirror path for their kinds.
	SpanningConstraints []string `json:"spanningConstraints,omitempty"`
	// Failovers counts shard re-points at a different replica-set member
	// (probe-observed promotions plus stale-leader-triggered rotations).
	Failovers int64 `json:"failovers,omitempty"`
	// Shards is the per-shard breakdown, ring order.
	Shards []RouterShardStats `json:"shards,omitempty"`
}

// RouterShardStats is one shard's view from the router.
type RouterShardStats struct {
	Addr string `json:"addr"`
	// Owned counts operations this shard received as the ring owner.
	Owned int64 `json:"owned"`
	// Mirrored counts spanning-kind submissions this shard received as a
	// non-owner mirror.
	Mirrored int64 `json:"mirrored"`
	// Members lists the shard's replica-set members (primary first, as
	// configured); absent for single-member shards.
	Members []string `json:"members,omitempty"`
	// Active is the member currently serving the shard's traffic.
	Active string `json:"active,omitempty"`
	// Epoch is the highest fencing epoch the router has observed from the
	// shard's members.
	Epoch uint64 `json:"epoch,omitempty"`
	// Failovers counts re-points of this shard at a different member.
	Failovers int64 `json:"failovers,omitempty"`
}

// WireEvent is one pushed situation transition. At is the middleware's
// logical clock at the transition, so replaying the same submissions
// yields byte-identical event streams in both wire formats (wall-clock
// timing stays server-side, in the push-latency histogram).
type WireEvent struct {
	// Situation is the situation name, or the subscription ID for inline
	// formula subscriptions.
	Situation string `json:"situation"`
	// Type is "activated" or "deactivated".
	Type string `json:"type"`
	// At is the logical time of the transition.
	At time.Time `json:"at"`
}

// BatchResult is one context's outcome within a batch submission. A
// failed item carries the same typed code a lone OpSubmit would have
// returned, so clients shed-and-retry per item, not per batch.
type BatchResult struct {
	OK         bool            `json:"ok"`
	Error      string          `json:"error,omitempty"`
	Code       Code            `json:"code,omitempty"`
	Violations []WireViolation `json:"violations,omitempty"`
}

func errResponse(err error) Response {
	return errResponseCode(CodeApp, err)
}

func errResponseCode(code Code, err error) Response {
	return Response{OK: false, Error: err.Error(), Code: code}
}

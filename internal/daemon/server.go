package daemon

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/telemetry"
)

// Server is the middleware role behind the shared serving loop (see
// Loop): it serves one middleware instance, pushes situation events to
// subscribers, ships the journal to followers, and runs the periodic
// checkpoint/compaction housekeeping. Create it with Serve (or
// ServeListener) and stop it with Shutdown.
type Server struct {
	*Loop
	mw     *middleware.Middleware
	engine *situation.Engine // optional; resolves named subscriptions (OpSubscribe)

	// hub routes middleware deltas to situation subscribers (subscribe.go).
	hub *hub

	maintDone chan struct{} // closed when the maintenance loop has exited
	counters  serverCounters

	// pushes is the event enqueue → write-complete latency; nil without
	// WithTelemetry.
	pushes *telemetry.Histogram
}

// WithSnapshotInterval makes the server checkpoint the middleware's
// journal periodically (see middleware.Checkpoint), bounding recovery
// replay work and letting the WAL truncate obsolete segments. Zero or
// negative disables periodic checkpoints. It has no effect when the
// middleware has no journal attached.
func WithSnapshotInterval(d time.Duration) Option {
	return func(o *options) { o.snapshotInterval = d }
}

// WithCompactInterval makes the server compact the middleware's context
// pool periodically (see middleware.Compact), reclaiming memory held by
// discarded and expired entries on long runs. Zero or negative disables
// periodic compaction.
func WithCompactInterval(d time.Duration) Option {
	return func(o *options) { o.compactInterval = d }
}

// FenceProvider is the split-brain fence consulted on every
// state-changing operation. Implemented by cluster.Fence: AllowWrites
// tracks the leader lease, Epoch is the journal's fencing epoch, and
// LeaderHint is the last known current leader ("" when unknown). A
// deposed or partitioned leader sheds writes with CodeStaleLeader while
// continuing to serve reads.
type FenceProvider interface {
	AllowWrites() bool
	Epoch() uint64
	LeaderHint() string
}

// WithFence installs the split-brain fence. The hello ack then carries
// the fencing epoch, and state-changing ops (submit, batch-submit, use,
// use-latest — anything that appends journal records) are refused with
// CodeStaleLeader once the fence withdraws write permission.
func WithFence(f FenceProvider) Option {
	return func(o *options) { o.fence = f }
}

// fenceCheck refuses one state-changing op when the fence has withdrawn
// write permission. The response carries the epoch the server fenced at
// and the known-leader hint so clients can rotate to the promoted
// member instead of retrying here.
func (s *Server) fenceCheck(op Op) (Response, bool) {
	f := s.opt.fence
	if f == nil || f.AllowWrites() {
		return Response{}, false
	}
	resp := errResponseCode(CodeStaleLeader,
		fmt.Errorf("%s: leader fenced at epoch %d (lease expired or deposed)", op, f.Epoch()))
	resp.Epoch = f.Epoch()
	resp.Leader = f.LeaderHint()
	return resp, true
}

// serverCounters are the middleware role's counters, reported in
// ServerStats next to the loop's transport counters.
type serverCounters struct {
	maintErrors atomic.Int64

	// Push-delivery counters (subscribe.go).
	pushesDelivered atomic.Int64
	pushesDropped   atomic.Int64
	subscribersShed atomic.Int64
}

// ServerStats is a snapshot of the server's transport counters, exposed
// over OpStats alongside the middleware and pool counters.
type ServerStats struct {
	// Accepted counts connections admitted to serving.
	Accepted int64 `json:"accepted"`
	// AcceptRetries counts temporary Accept errors survived via backoff.
	AcceptRetries int64 `json:"acceptRetries"`
	// RejectedFull counts connections turned away over the max-conns cap.
	RejectedFull int64 `json:"rejectedFull"`
	// Requests counts request lines read (including malformed ones).
	Requests int64 `json:"requests"`
	// BadRequests counts unparseable request lines.
	BadRequests int64 `json:"badRequests"`
	// FramesTooLong counts request lines over MaxLineBytes.
	FramesTooLong int64 `json:"framesTooLong"`
	// IdleClosed counts connections reaped by the idle deadline.
	IdleClosed int64 `json:"idleClosed"`
	// ReadErrors counts connections dropped on other transport errors.
	ReadErrors int64 `json:"readErrors"`
	// UptimeSeconds is the time since the server started serving.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// MaintenanceErrors counts failed periodic checkpoints/compactions.
	MaintenanceErrors int64 `json:"maintenanceErrors"`
	// Subscribers is the number of currently registered subscriptions.
	Subscribers int64 `json:"subscribers"`
	// PushesDelivered counts event frames written to subscribers.
	PushesDelivered int64 `json:"pushesDelivered"`
	// PushesDropped counts events lost to slow-consumer shedding.
	PushesDropped int64 `json:"pushesDropped"`
	// SubscribersShed counts connections shed with CodeSubscriberLagged.
	SubscribersShed int64 `json:"subscribersShed"`
}

// Stats snapshots the transport counters and the push and maintenance
// counters.
func (s *Server) Stats() ServerStats {
	st := s.Loop.Stats()
	st.Subscribers = int64(s.hub.size())
	st.PushesDelivered = s.counters.pushesDelivered.Load()
	st.PushesDropped = s.counters.pushesDropped.Load()
	st.SubscribersShed = s.counters.subscribersShed.Load()
	st.MaintenanceErrors = s.counters.maintErrors.Load()
	return st
}

// Serve starts accepting connections on addr (e.g. "127.0.0.1:7654"; use
// port 0 for an ephemeral port) and returns the running server.
func Serve(addr string, mw *middleware.Middleware, engine *situation.Engine, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	return ServeListener(ln, mw, engine, opts...), nil
}

// ServeListener starts serving on an existing listener. It takes ownership
// of ln (Shutdown closes it). This is the injection point for fault
// harnesses such as internal/daemon/faultconn.
func ServeListener(ln net.Listener, mw *middleware.Middleware, engine *situation.Engine, opts ...Option) *Server {
	s := &Server{mw: mw, engine: engine, maintDone: make(chan struct{})}
	s.Loop = newLoop(ln, func(p *Peer) Handler { return &mwConn{s: s, peer: p} }, opts)
	s.hub = newHub(s, s.opt.subs)
	mw.SetDeltaHook(s.hub.notify)
	s.registerTelemetry(s.opt.telemetry)
	s.Loop.run()
	go s.maintenanceLoop()
	return s
}

// maintenanceLoop runs the periodic durability and memory housekeeping:
// journal checkpoints (bounding recovery replay) and pool compaction.
// Both are best-effort — a failure is counted and retried at the next
// tick rather than taking the server down; a failed journal makes the
// serving path itself report errors.
func (s *Server) maintenanceLoop() {
	defer close(s.maintDone)
	var snapC, compactC <-chan time.Time
	if s.opt.snapshotInterval > 0 {
		t := time.NewTicker(s.opt.snapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	if s.opt.compactInterval > 0 {
		t := time.NewTicker(s.opt.compactInterval)
		defer t.Stop()
		compactC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-snapC:
			if err := s.mw.Checkpoint(); err != nil && !errors.Is(err, middleware.ErrNoJournal) {
				s.counters.maintErrors.Add(1)
			}
		case <-compactC:
			if _, err := s.mw.Compact(); err != nil {
				s.counters.maintErrors.Add(1)
			}
		}
	}
}

// Shutdown stops the loop (draining in-flight requests and flushing
// queued pushes) and the maintenance goroutine. It is idempotent.
func (s *Server) Shutdown() {
	// Detach the delta hook first: no new events enqueue during drain,
	// while already-queued events are still flushed by the pushers.
	s.mw.SetDeltaHook(nil)
	s.Loop.Shutdown()
	<-s.maintDone
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpSubmit:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		if req.Context == nil {
			return errResponse(errors.New("submit: missing context"))
		}
		tr := s.traceFor(req)
		so := middleware.SubmitOptions{Trace: tr}
		if req.TimeoutMillis > 0 {
			so.Deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
		}
		vios, err := s.mw.SubmitOpts(req.Context, so)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Violations: toWire(vios), TraceID: tr.TraceID}
	case OpBatchSubmit:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		if len(req.Contexts) == 0 {
			return errResponse(errors.New("batch-submit: missing contexts"))
		}
		if len(req.Contexts) > MaxBatchContexts {
			return errResponseCode(CodeBadRequest,
				fmt.Errorf("batch-submit: %d contexts exceeds limit %d", len(req.Contexts), MaxBatchContexts))
		}
		tr := s.traceFor(req)
		so := middleware.SubmitOptions{Trace: tr}
		if req.TimeoutMillis > 0 {
			so.Deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
		}
		results, err := s.mw.SubmitBatch(req.Contexts, so)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		out := make([]BatchResult, len(results))
		for i, r := range results {
			if r.Err != nil {
				out[i] = BatchResult{Error: r.Err.Error(), Code: codeFor(r.Err)}
			} else {
				out[i] = BatchResult{OK: true, Violations: toWire(r.Violations)}
			}
		}
		return Response{OK: true, Results: out, TraceID: tr.TraceID}
	case OpUse:
		// Use ops append journal records (usage is replicated state), so
		// they shed under the fence like submits do.
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		tr := s.traceFor(req)
		c, err := s.mw.UseTrace(req.ID, tr)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Context: c, TraceID: tr.TraceID}
	case OpUseLatest:
		if resp, shed := s.fenceCheck(req.Op); shed {
			return resp
		}
		if req.Kind == "" {
			return errResponse(errors.New("use-latest: missing kind"))
		}
		tr := s.traceFor(req)
		c, err := s.mw.UseLatestTrace(req.Kind, req.Subject, tr)
		if err != nil {
			return errResponseCode(codeFor(err), err)
		}
		return Response{OK: true, Context: c, TraceID: tr.TraceID}
	case OpProvenance:
		if s.opt.prov == nil {
			return errResponse(errors.New("provenance: not enabled on this server"))
		}
		return Response{OK: true, Provenance: s.opt.prov.Events(req.Limit)}
	case OpStats:
		mwStats := s.mw.Stats()
		poolStats := s.mw.Pool().Stats()
		srvStats := s.Stats()
		resStats := s.mw.Resilience()
		return Response{
			OK:         true,
			Middleware: &mwStats,
			Pool:       &poolStats,
			Daemon:     &srvStats,
			Journal:    s.mw.JournalStats(),
			Telemetry:  s.opt.telemetry.Snapshot(),
			Resilience: &resStats,
			Health:     s.mw.HealthSnapshot(),
		}
	case OpSituations:
		return Response{OK: true, Active: s.mw.Situations()}
	default:
		return errResponse(fmt.Errorf("unknown op %q", req.Op))
	}
}

// traceFor resolves the trace context one request runs under. With no
// span sink there is nowhere to record spans, so tracing is off
// regardless of what the request carries. A request arriving with a
// trace joins it (the caller's span becomes the parent of the spans the
// middleware opens); an untraced request may root a fresh trace when the
// server's sampler elects it — that is how a single-node daemon traces
// without a router in front.
func (s *Server) traceFor(req Request) telemetry.TraceContext {
	if s.opt.spanSink == nil {
		return telemetry.TraceContext{}
	}
	if req.TraceID != "" {
		return telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}
	}
	if s.opt.sampler.Sample() {
		return telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	}
	return telemetry.TraceContext{}
}

// codeFor maps a middleware rejection to its protocol code, so clients
// can distinguish overload shedding (back off) and quarantine/watchdog
// drops (typed, never retried) from ordinary application errors.
func codeFor(err error) Code {
	switch {
	case errors.Is(err, middleware.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, middleware.ErrQuarantined):
		return CodeQuarantined
	case errors.Is(err, middleware.ErrCheckTimeout), errors.Is(err, middleware.ErrCheckFailed):
		return CodeCheckTimeout
	case errors.Is(err, middleware.ErrNotFound):
		return CodeNotFound
	default:
		return CodeApp
	}
}

// SetConnDeadline is a hook for tests to exercise timeout paths; the
// server manages its own per-connection deadlines via WithIdleTimeout.
func SetConnDeadline(conn net.Conn, d time.Duration) error {
	if d <= 0 {
		return conn.SetDeadline(time.Time{})
	}
	return conn.SetDeadline(time.Now().Add(d))
}

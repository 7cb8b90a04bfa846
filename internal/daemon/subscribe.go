package daemon

// Situation subscriptions with push delivery. A client registers a named
// situation or an inline formula on its connection (OpSubscribe); the hub
// indexes each subscription's formula by the context kinds it quantifies
// over (the same pruning the incremental checker gets from the pool's
// kind index), and the middleware's delta hook re-evaluates only the
// subscriptions whose kinds a submit/discard/expiry touched. Transitions
// are queued per connection into a bounded channel drained by a dedicated
// pusher goroutine; a queue overflow sheds the whole connection with the
// typed CodeSubscriberLagged push so one stalled consumer can never block
// the middleware or other subscribers.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/situation"
	"ctxres/internal/telemetry"
)

// Subscription tuning defaults (see WithSubscriptions).
const (
	DefaultMaxSubscribers = 1024
	DefaultSubQueueLen    = 64
)

// laggedWriteDeadline bounds the best-effort CodeSubscriberLagged notice:
// the consumer already proved slow, so the notice gets one short chance.
const laggedWriteDeadline = 250 * time.Millisecond

// SubscriptionOptions tunes push delivery.
type SubscriptionOptions struct {
	// MaxSubscribers caps the subscriptions registered across the server;
	// an OpSubscribe past the cap is refused with CodeBusy. Zero means
	// DefaultMaxSubscribers; negative means unlimited.
	MaxSubscribers int
	// QueueLen is the per-connection event queue length; a subscriber
	// whose queue overflows is shed with CodeSubscriberLagged. Zero means
	// DefaultSubQueueLen.
	QueueLen int
}

// WithSubscriptions tunes the subscription hub (ctxmwd's
// -max-subscribers and -sub-queue flags land here).
func WithSubscriptions(so SubscriptionOptions) Option {
	return func(o *options) { o.subs = so }
}

// pushItem is one queued event frame plus its enqueue instant for the
// push-latency histogram. trace links the push back to the operation
// whose delta triggered it: when that operation ran under a sampled
// trace, the delivered push gets a child span of the operation's.
type pushItem struct {
	resp  Response
	enq   time.Time
	trace telemetry.TraceContext
}

// subscriber is the push side of one connection: a bounded event queue
// drained by a dedicated pusher goroutine. It is created on the
// connection's first OpSubscribe and lives until the connection ends.
type subscriber struct {
	peer  *Peer
	queue chan pushItem

	n atomic.Int32 // registered subscriptions (read by the serve loop)

	lagged     chan struct{} // closed when the queue overflowed (shed)
	laggedOnce sync.Once
	stop       chan struct{} // closed on connection teardown
	stopOnce   sync.Once
	done       chan struct{} // closed when the pusher goroutine exits

	entries map[string]*subEntry // guarded by hub.mu
}

func (sub *subscriber) markLagged() {
	sub.laggedOnce.Do(func() {
		close(sub.lagged)
		// Abort a push write currently blocked on the stalled connection
		// so the pusher observes the shed promptly instead of waiting out
		// the full write deadline.
		_ = sub.peer.SetWriteDeadline(time.Now())
	})
}

func (sub *subscriber) isLagged() bool {
	select {
	case <-sub.lagged:
		return true
	default:
		return false
	}
}

// subEntry is one registered subscription.
type subEntry struct {
	sub     *subscriber
	seq     uint64 // registration order, for deterministic event ordering
	id      string
	name    string // event label: the situation name, or the sub ID for inline formulas
	formula constraint.Formula
	kinds   map[ctx.Kind]bool
	active  bool // last evaluated truth value
}

// hub indexes every live subscription by the kinds its formula quantifies
// over and turns middleware deltas into queued push events. Lock order:
// middleware.mu (the delta hook) → hub.mu → pool's internal lock /
// connState.mu; the subscribe/unsubscribe paths take hub.mu without
// middleware.mu, which is safe because the hook never blocks on the
// serving path.
type hub struct {
	s        *Server
	maxSubs  int
	queueLen int

	mu     sync.Mutex
	seq    uint64
	count  int
	byKind map[ctx.Kind]map[*subEntry]bool
}

func newHub(s *Server, so SubscriptionOptions) *hub {
	if so.MaxSubscribers == 0 {
		so.MaxSubscribers = DefaultMaxSubscribers
	}
	if so.QueueLen <= 0 {
		so.QueueLen = DefaultSubQueueLen
	}
	return &hub{
		s:        s,
		maxSubs:  so.MaxSubscribers,
		queueLen: so.QueueLen,
		byKind:   make(map[ctx.Kind]map[*subEntry]bool),
	}
}

// size returns the number of registered subscriptions.
func (h *hub) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// universeFor snapshots the pool's available view for the given kinds, in
// the chronological order quantifiers range over.
func (h *hub) universeFor(kinds map[ctx.Kind]bool) constraint.Universe {
	byKind := make(map[ctx.Kind][]*ctx.Context, len(kinds))
	p := h.s.mw.Pool()
	for k := range kinds {
		byKind[k] = p.AvailableOfKind(k)
	}
	return constraint.NewPresortedUniverse(byKind)
}

// subscribe registers one subscription and evaluates its baseline truth,
// so only transitions after the ack are pushed.
func (h *hub) subscribe(sub *subscriber, id, label string, f constraint.Formula) Response {
	kinds := constraint.FormulaKinds(f)
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub.isLagged() {
		return errResponseCode(CodeSubscriberLagged,
			errors.New("subscribe: connection was shed as lagged"))
	}
	if _, dup := sub.entries[id]; dup {
		return errResponseCode(CodeDupSubscription,
			fmt.Errorf("subscribe: id %q already registered on this connection", id))
	}
	if h.maxSubs > 0 && h.count >= h.maxSubs {
		return errResponseCode(CodeBusy,
			fmt.Errorf("subscribe: server at subscription cap (%d)", h.maxSubs))
	}
	e := &subEntry{sub: sub, seq: h.seq, id: id, name: label, formula: f, kinds: kinds}
	h.seq++
	e.active = constraint.Eval(f, h.universeFor(kinds)).Satisfied
	sub.entries[id] = e
	sub.n.Add(1)
	h.count++
	for k := range kinds {
		m := h.byKind[k]
		if m == nil {
			m = make(map[*subEntry]bool)
			h.byKind[k] = m
		}
		m[e] = true
	}
	return Response{OK: true, SubID: id}
}

// unsubscribe removes one subscription. Events already queued may still
// be delivered; no new transitions are pushed after the ack.
func (h *hub) unsubscribe(sub *subscriber, id string) Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := sub.entries[id]
	if e == nil {
		return errResponse(fmt.Errorf("unsubscribe: unknown subscription %q", id))
	}
	h.removeEntryLocked(e)
	return Response{OK: true, SubID: id}
}

func (h *hub) removeEntryLocked(e *subEntry) {
	if _, ok := e.sub.entries[e.id]; !ok {
		return
	}
	delete(e.sub.entries, e.id)
	e.sub.n.Add(-1)
	h.count--
	for k := range e.kinds {
		delete(h.byKind[k], e)
		if len(h.byKind[k]) == 0 {
			delete(h.byKind, k)
		}
	}
}

// detachEntries removes every subscription of a departing connection.
func (h *hub) detachEntries(sub *subscriber) {
	if sub == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range sub.entries {
		h.removeEntryLocked(e)
	}
}

// notify is the middleware delta hook: re-evaluate exactly the
// subscriptions whose formulas mention an affected kind and queue the
// transitions. It runs under the middleware lock, so it must never block
// — enqueueing is non-blocking and a full queue sheds the subscriber.
func (h *hub) notify(d middleware.Delta) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return
	}
	var affected []*subEntry
	seen := make(map[*subEntry]bool)
	for _, k := range d.Kinds {
		for e := range h.byKind[k] {
			if !seen[e] {
				seen[e] = true
				affected = append(affected, e)
			}
		}
	}
	if len(affected) == 0 {
		return
	}
	// Registration order keeps multi-subscription connections seeing
	// deterministically ordered event streams.
	sort.Slice(affected, func(i, j int) bool { return affected[i].seq < affected[j].seq })
	union := make(map[ctx.Kind]bool)
	for _, e := range affected {
		for k := range e.kinds {
			union[k] = true
		}
	}
	u := h.universeFor(union)
	now := time.Now()
	for _, e := range affected {
		holds := constraint.Eval(e.formula, u).Satisfied
		if holds == e.active {
			continue
		}
		e.active = holds
		typ := situation.Activated
		if !holds {
			typ = situation.Deactivated
		}
		ev := &WireEvent{Situation: e.name, Type: typ.String(), At: d.Clock}
		h.enqueueLocked(e.sub, Response{OK: true, Push: true, SubID: e.id, Event: ev}, now,
			telemetry.TraceContext{TraceID: d.TraceID, SpanID: d.SpanID})
	}
}

func (h *hub) enqueueLocked(sub *subscriber, resp Response, now time.Time, tr telemetry.TraceContext) {
	if sub.isLagged() {
		return
	}
	select {
	case sub.queue <- pushItem{resp: resp, enq: now, trace: tr}:
	default:
		h.shedLocked(sub)
	}
}

// shedLocked cancels every subscription of a lagged connection. The
// pusher delivers the best-effort CodeSubscriberLagged notice and closes
// the connection; the events still in the queue count as dropped along
// with the one that found it full.
func (h *hub) shedLocked(sub *subscriber) {
	h.s.counters.pushesDropped.Add(int64(len(sub.queue)) + 1)
	h.s.counters.subscribersShed.Add(1)
	for _, e := range sub.entries {
		h.removeEntryLocked(e)
	}
	sub.markLagged()
}

// newSubscriber attaches push delivery to a connection and starts its
// pusher goroutine (joined by detachSubscriber when the connection ends).
func (s *Server) newSubscriber(peer *Peer) *subscriber {
	sub := &subscriber{
		peer:    peer,
		queue:   make(chan pushItem, s.hub.queueLen),
		lagged:  make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		entries: make(map[string]*subEntry),
	}
	go s.pusher(sub)
	return sub
}

// pusher drains one subscriber's event queue onto its connection.
func (s *Server) pusher(sub *subscriber) {
	defer close(sub.done)
	for {
		select {
		case <-sub.lagged:
			// The frame boundary is intact here (any blocked write was
			// aborted and handled below), so the typed notice can be
			// framed safely. Best-effort: the consumer already proved
			// slow.
			sub.peer.write(Response{OK: false, Push: true, Code: CodeSubscriberLagged,
				Error: "subscriber lagged: event queue overflowed"}, laggedWriteDeadline)
			sub.peer.forceClose()
			return
		case <-sub.stop:
			return
		case <-s.stop:
			// Shutdown: flush what is queued (drain force-closes the
			// connection at the drain deadline, aborting a stuck flush).
			s.flushPushes(sub)
			return
		case it := <-sub.queue:
			if !s.writePush(sub, it) {
				return
			}
		}
	}
}

// writePush delivers one event frame. A failed write means the stream is
// no longer at a frame boundary, so the connection is closed rather than
// patched — if the failure came from a shed's deadline abort, the client
// learns via the connection close instead of the (now unframeable)
// notice.
func (s *Server) writePush(sub *subscriber, it pushItem) bool {
	if !sub.peer.Push(it.resp) {
		s.hub.detachEntries(sub)
		sub.peer.forceClose()
		return false
	}
	s.counters.pushesDelivered.Add(1)
	if s.pushes != nil && !it.enq.IsZero() {
		s.pushes.ObserveDuration(time.Since(it.enq))
	}
	if s.opt.spanSink != nil && it.trace.Sampled() {
		s.opt.spanSink.RecordSpan(&telemetry.Span{
			Op:       "push",
			ID:       it.resp.SubID,
			TraceID:  it.trace.TraceID,
			ParentID: it.trace.SpanID,
			SpanID:   telemetry.NewSpanID(),
			Start:    it.enq,
			Seconds:  time.Since(it.enq).Seconds(),
			Outcome:  "delivered",
		})
	}
	return true
}

func (s *Server) flushPushes(sub *subscriber) {
	for {
		select {
		case it := <-sub.queue:
			if !s.writePush(sub, it) {
				return
			}
		default:
			return
		}
	}
}

// detachSubscriber tears down a connection's push side: subscriptions are
// deregistered, the pusher is stopped and joined. The caller closes the
// connection first, so a pusher blocked in a write is unblocked.
func (s *Server) detachSubscriber(sub *subscriber) {
	if sub == nil {
		return
	}
	s.hub.detachEntries(sub)
	sub.stopOnce.Do(func() { close(sub.stop) })
	<-sub.done
}

// mwConn is the middleware role's per-connection Handler: it owns the
// ops that need connection state (subscriptions, the replication
// hand-over); everything else goes through the server's pure handle.
type mwConn struct {
	s    *Server
	peer *Peer
	// sub is the connection's push side, created on its first subscribe.
	sub *subscriber
}

func (c *mwConn) Subscribed() bool { return c.sub != nil && c.sub.n.Load() > 0 }

func (c *mwConn) Close() { c.s.detachSubscriber(c.sub) }

func (c *mwConn) Handle(req *Request) (Response, func()) {
	switch req.Op {
	case OpSubscribe:
		return c.handleSubscribe(req), nil
	case OpUnsubscribe:
		if req.SubID == "" {
			return errResponseCode(CodeBadRequest, errors.New("unsubscribe: missing subId")), nil
		}
		if c.sub == nil {
			return errResponse(fmt.Errorf("unsubscribe: unknown subscription %q", req.SubID)), nil
		}
		return c.s.hub.unsubscribe(c.sub, req.SubID), nil
	case OpReplicate:
		if c.s.opt.replSource == nil {
			return errResponse(errors.New("replicate: server has no replication source")), nil
		}
		// The ack hands the connection over to the replication stream.
		fromSeq := req.FromSeq
		return Response{OK: true}, func() { c.s.streamReplication(c.peer, fromSeq) }
	default:
		return c.s.handle(*req), nil
	}
}

func (c *mwConn) handleSubscribe(req *Request) Response {
	s := c.s
	if req.SubID == "" {
		return errResponseCode(CodeBadRequest, errors.New("subscribe: missing subId"))
	}
	if (req.Situation == "") == (req.Formula == "") {
		return errResponseCode(CodeBadRequest,
			errors.New("subscribe: exactly one of situation and formula required"))
	}
	var f constraint.Formula
	label := req.SubID
	if req.Situation != "" {
		if s.engine == nil {
			return errResponse(errors.New("subscribe: server has no situation engine"))
		}
		for _, sit := range s.engine.Situations() {
			if sit.Name == req.Situation {
				f = sit.Formula
				break
			}
		}
		if f == nil {
			return errResponse(fmt.Errorf("subscribe: unknown situation %q", req.Situation))
		}
		label = req.Situation
	} else {
		var err error
		f, err = constraint.NewParser().Parse(req.Formula)
		if err != nil {
			return errResponseCode(CodeBadRequest, fmt.Errorf("subscribe: %w", err))
		}
	}
	if c.sub == nil {
		c.sub = s.newSubscriber(c.peer)
	}
	return s.hub.subscribe(c.sub, req.SubID, label, f)
}

package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/telemetry"
)

// routerConn is the router role's per-connection daemon.Handler: the
// shared serving loop decodes a downstream connection's requests, and
// routerConn fans them out to per-connection upstream clients (one
// daemon.Client per shard, dialed lazily) and merges the answers.
// Upstream clients are per downstream connection so subscriptions and
// round-trip serialization stay scoped the way a direct connection's
// would be.
type routerConn struct {
	r    *Router
	peer *daemon.Peer

	ups       map[string]*daemon.Client // keyed by ring key; serving goroutine only
	upsActive map[string]string         // member each upstream client was dialed for
	subs      map[string]*subState      // guarded by subsMu: push handlers read it
	subsMu    sync.Mutex
}

// subState OR-aggregates one subscription across shards: the downstream
// client sees "activated" when any shard's situation is active, mirroring
// what a single node with the union pool would report.
type subState struct {
	mu     sync.Mutex
	active map[string]bool // per-shard activation
	cur    bool            // last state pushed downstream
}

// errResp builds a typed error response, so the router answers protocol
// trouble with the same taxonomy a shard daemon would.
func errResp(code daemon.Code, err error) daemon.Response {
	return daemon.Response{Error: err.Error(), Code: code}
}

// client returns (dialing lazily) this connection's upstream client for
// a ring key. With a replica set behind the key, the client dials the
// set's probe-chosen active member and carries the remaining members as
// dial fallbacks — a stale-leader rejection or a dead member rotates the
// client onto the promoted follower without the router's help. When the
// probe loop re-points the set, a cached client dialed for the old
// member is replaced — unless this connection holds subscriptions, which
// live on the client and survive failover through its own rotation.
func (rc *routerConn) client(shard string) (*daemon.Client, error) {
	active, fallbacks := shard, []string(nil)
	if s := rc.r.sets[shard]; s != nil && len(s.members) > 1 {
		active = s.Active()
		fallbacks = s.others(active)
	}
	if c, ok := rc.ups[shard]; ok {
		if rc.upsActive[shard] == active || rc.Subscribed() {
			return c, nil
		}
		_ = c.Close()
		delete(rc.ups, shard)
	}
	c, err := daemon.DialOptions(active, daemon.ClientOptions{
		Timeout:    rc.r.opt.Timeout,
		Addrs:      fallbacks,
		WireFormat: daemon.FormatBinary,
		Role:       daemon.RoleRouter,
		Trace:      rc.r.opt.SpanSink != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", shard, err)
	}
	rc.ups[shard] = c
	rc.upsActive[shard] = active
	return c, nil
}

// Subscribed implements daemon.Handler.
func (rc *routerConn) Subscribed() bool {
	rc.subsMu.Lock()
	defer rc.subsMu.Unlock()
	return len(rc.subs) > 0
}

// staleLeader reports a fenced leader's typed write rejection.
func staleLeader(err error) bool {
	var remote *daemon.RemoteError
	return errors.As(err, &remote) && remote.Code == daemon.CodeStaleLeader
}

// withStaleRetry runs one write hop against a shard's client, retrying
// exactly once when a fenced leader sheds it: on CodeStaleLeader the
// client has already dropped the connection and rotated toward the
// promoted member (preferring the rejection's leader hint), so the
// second attempt lands there. The retry is safe for the same reason
// transport retries are — the deposed leader rejected without applying
// anything. Any other error, including a second stale-leader, surfaces.
func (rc *routerConn) withStaleRetry(shard string, fn func(*daemon.Client) error) error {
	cl, err := rc.client(shard)
	if err != nil {
		return err
	}
	err = fn(cl)
	if staleLeader(err) {
		rc.r.noteStaleLeader(shard)
		err = fn(cl)
	}
	return err
}

// Close implements daemon.Handler, closing the upstream fan-out clients.
func (rc *routerConn) Close() {
	for _, c := range rc.ups {
		_ = c.Close()
	}
}

// shardError converts an upstream failure into a downstream response,
// preserving the shard's typed code when it answered.
func shardError(shard string, err error) daemon.Response {
	var remote *daemon.RemoteError
	if errors.As(err, &remote) {
		return errResp(remote.Code, errors.New(remote.Message))
	}
	return errResp(daemon.CodeApp, fmt.Errorf("shard %s unreachable: %w", shard, err))
}

// Handle implements daemon.Handler.
func (rc *routerConn) Handle(req *daemon.Request) (daemon.Response, func()) {
	return rc.handle(req), nil
}

func (rc *routerConn) handle(req *daemon.Request) daemon.Response {
	switch req.Op {
	case daemon.OpPing:
		return daemon.Response{OK: true}
	case daemon.OpSubmit:
		return rc.handleSubmit(req)
	case daemon.OpBatchSubmit:
		return rc.handleBatch(req)
	case daemon.OpUse:
		return rc.handleUse(req)
	case daemon.OpUseLatest:
		return rc.handleUseLatest(req)
	case daemon.OpStats:
		return rc.handleStats()
	case daemon.OpSituations:
		return rc.handleSituations()
	case daemon.OpProvenance:
		return rc.handleProvenance(req)
	case daemon.OpSubscribe:
		return rc.handleSubscribe(req)
	case daemon.OpUnsubscribe:
		return rc.handleUnsubscribe(req)
	case daemon.OpReplicate:
		return errResp(daemon.CodeBadRequest,
			errors.New("the router does not serve replication; connect to a shard daemon"))
	default:
		return errResp(daemon.CodeApp, fmt.Errorf("unknown op %q", req.Op))
	}
}

func budgetOf(req *daemon.Request) time.Duration {
	return time.Duration(req.TimeoutMillis) * time.Millisecond
}

// handleSubmit routes one submission: shard-local kinds go to the ring
// owner only; kinds quantified by a spanning constraint are mirrored to
// every shard so each shard's check universe for those constraints stays
// complete. The owner's response is authoritative either way.
func (rc *routerConn) handleSubmit(req *daemon.Request) daemon.Response {
	c := req.Context
	if c == nil {
		return errResp(daemon.CodeBadRequest, errors.New("submit: missing context"))
	}
	r := rc.r
	owner := r.owner(c.Source)
	spanning := r.spanningKinds[c.Kind]
	tr := r.traceFor(req)
	root := r.startSpan("route_submit", string(c.ID), tr)
	var ownerResp daemon.Response
	if spanning {
		r.scattered.Add(1)
	} else {
		r.routed.Add(1)
	}
	for _, shard := range r.ring.Addrs() {
		if shard != owner && !spanning {
			continue
		}
		hopOp := "shard_submit"
		if shard != owner {
			hopOp = "mirror_submit"
		}
		hop := r.startSpan(hopOp, shard, spanCtx(root, tr))
		var vios []daemon.WireViolation
		err := rc.withStaleRetry(shard, func(cl *daemon.Client) error {
			var herr error
			vios, herr = cl.SubmitTrace(c, budgetOf(req), spanCtx(hop, tr))
			return herr
		})
		r.finishSpan(hop, okOutcome(err))
		if shard == owner {
			r.shardCtrs[shard].owned.Add(1)
			if err != nil {
				ownerResp = shardError(shard, err)
			} else {
				ownerResp = daemon.Response{OK: true, Violations: vios, TraceID: tr.TraceID}
				r.rememberLatest(c, owner)
			}
			continue
		}
		r.shardCtrs[shard].mirrored.Add(1)
		if err != nil {
			// A failed mirror cannot fail the submission the owner already
			// accepted; it is logged so an operator can see the spanning
			// check universe on that shard is incomplete.
			r.opt.Logf("cluster: router: mirror submit %s to %s: %v", c.ID, shard, err)
		}
	}
	r.finishSpan(root, routeOutcome(ownerResp))
	return ownerResp
}

// routeOutcome maps the authoritative response to the root span's
// outcome label.
func routeOutcome(resp daemon.Response) string {
	if resp.OK {
		return "ok"
	}
	return "error"
}

// handleBatch partitions a batch per shard, preserving the original
// submission order within each shard (mirrored spanning-kind items
// interleave with owned ones exactly as they do globally), and maps each
// item's result back from its owner shard.
func (rc *routerConn) handleBatch(req *daemon.Request) daemon.Response {
	n := len(req.Contexts)
	if n == 0 {
		return errResp(daemon.CodeBadRequest, errors.New("batch-submit: no contexts"))
	}
	if n > daemon.MaxBatchContexts {
		return errResp(daemon.CodeBadRequest,
			fmt.Errorf("batch-submit: %d contexts exceeds cap %d", n, daemon.MaxBatchContexts))
	}
	r := rc.r
	tr := r.traceFor(req)
	root := r.startSpan("route_batch", fmt.Sprintf("%d items", n), tr)
	type shardBatch struct {
		items    []*ctx.Context
		ownerIdx []int // original index per item; -1 for mirrored copies
	}
	batches := make(map[string]*shardBatch)
	results := make([]daemon.BatchResult, n)
	for i, c := range req.Contexts {
		if c == nil {
			results[i] = daemon.BatchResult{OK: false, Code: daemon.CodeBadRequest, Error: "missing context"}
			continue
		}
		owner := r.owner(c.Source)
		spanning := r.spanningKinds[c.Kind]
		if spanning {
			r.scattered.Add(1)
		} else {
			r.routed.Add(1)
		}
		for _, shard := range r.ring.Addrs() {
			if shard != owner && !spanning {
				continue
			}
			b := batches[shard]
			if b == nil {
				b = &shardBatch{}
				batches[shard] = b
			}
			b.items = append(b.items, c)
			if shard == owner {
				b.ownerIdx = append(b.ownerIdx, i)
				r.shardCtrs[shard].owned.Add(1)
			} else {
				b.ownerIdx = append(b.ownerIdx, -1)
				r.shardCtrs[shard].mirrored.Add(1)
			}
		}
	}
	for _, shard := range r.ring.Addrs() {
		b := batches[shard]
		if b == nil {
			continue
		}
		var shardResults []daemon.BatchResult
		hop := r.startSpan("shard_batch", shard, spanCtx(root, tr))
		err := rc.withStaleRetry(shard, func(cl *daemon.Client) error {
			var herr error
			shardResults, herr = cl.SubmitBatchTrace(b.items, budgetOf(req), spanCtx(hop, tr))
			return herr
		})
		r.finishSpan(hop, okOutcome(err))
		if err != nil {
			fail := shardError(shard, err)
			for _, idx := range b.ownerIdx {
				if idx >= 0 {
					results[idx] = daemon.BatchResult{OK: false, Code: fail.Code, Error: fail.Error}
				}
			}
			r.opt.Logf("cluster: router: batch to %s failed: %v", shard, err)
			continue
		}
		for pos, idx := range b.ownerIdx {
			if idx >= 0 && pos < len(shardResults) {
				results[idx] = shardResults[pos]
				// Remember the hint only for items the owner accepted: a
				// rejected or unreachable item must not steer use-latest to
				// a shard that never held the context.
				if shardResults[pos].OK {
					r.rememberLatest(b.items[pos], shard)
				}
			}
		}
	}
	r.finishSpan(root, "ok")
	return daemon.Response{OK: true, Results: results, TraceID: tr.TraceID}
}

// handleUse probes the shards in ring order for the ID (context IDs do
// not carry their source, so the owner cannot be computed); the first
// shard that delivers wins, and mirrored copies of spanning-kind
// contexts are consumed from the remaining shards so they cannot linger.
func (rc *routerConn) handleUse(req *daemon.Request) daemon.Response {
	r := rc.r
	tr := r.traceFor(req)
	root := r.startSpan("route_use", string(req.ID), tr)
	var lastErr daemon.Response
	lastErr = errResp(daemon.CodeApp, fmt.Errorf("use %s: no shards reachable", req.ID))
	for probe, shard := range r.ring.Addrs() {
		hop := r.startSpan("shard_use", shard, spanCtx(root, tr))
		var cc *ctx.Context
		err := rc.withStaleRetry(shard, func(cl *daemon.Client) error {
			var herr error
			cc, herr = cl.UseTrace(req.ID, spanCtx(hop, tr))
			return herr
		})
		r.finishSpan(hop, okOutcome(err))
		if err != nil {
			lastErr = shardError(shard, err)
			continue
		}
		if probe == 0 {
			r.routed.Add(1)
		} else {
			r.scattered.Add(1)
		}
		r.shardCtrs[shard].owned.Add(1)
		if cc != nil && r.spanningKinds[cc.Kind] {
			rc.consumeMirrors(req.ID, shard, spanCtx(root, tr))
		}
		r.finishSpan(root, "ok")
		return daemon.Response{OK: true, Context: cc, TraceID: tr.TraceID}
	}
	r.finishSpan(root, "error")
	return lastErr
}

// consumeMirrors uses a spanning-kind context's mirrored copies off every
// other shard. A typed not-found is the expected answer from a mirror
// that never received the copy; any other failure means the copy may
// linger on that shard (later producing violations against an
// already-consumed context), so it is logged like mirror-submit
// failures are.
func (rc *routerConn) consumeMirrors(id ctx.ID, except string, tr telemetry.TraceContext) {
	for _, shard := range rc.r.ring.Addrs() {
		if shard == except {
			continue
		}
		err := rc.withStaleRetry(shard, func(cl *daemon.Client) error {
			_, herr := cl.UseTrace(id, tr)
			return herr
		})
		if err != nil && !isNotFound(err) {
			rc.r.opt.Logf("cluster: router: mirror consume %s from %s: %v", id, shard, err)
		}
	}
}

// isNotFound reports a shard's typed not-found verdict.
func isNotFound(err error) bool {
	var remote *daemon.RemoteError
	return errors.As(err, &remote) && remote.Code == daemon.CodeNotFound
}

// handleUseLatest routes to the shard that received the most recent
// submission of the kind/subject (the router sees all submissions, so
// that shard holds the newest matching context). A hint miss — no
// remembered shard, or the remembered shard fails to deliver (its newest
// match was consumed or expired; an older one from a different source
// may live on another shard) — falls back to probing in ring order, so
// the router delivers whenever a single node with the union pool would.
func (rc *routerConn) handleUseLatest(req *daemon.Request) daemon.Response {
	r := rc.r
	tr := r.traceFor(req)
	root := r.startSpan("route_use_latest", string(req.Kind)+"/"+req.Subject, tr)
	hinted, hadHint := r.lookupLatest(req.Kind, req.Subject)
	var lastErr daemon.Response
	lastErr = errResp(daemon.CodeApp,
		fmt.Errorf("use-latest %s/%s: no shard holds a match", req.Kind, req.Subject))
	if hadHint {
		var cc *ctx.Context
		hop := r.startSpan("shard_use_latest", hinted, spanCtx(root, tr))
		err := rc.withStaleRetry(hinted, func(cl *daemon.Client) error {
			var herr error
			cc, herr = cl.UseLatestTrace(req.Kind, req.Subject, spanCtx(hop, tr))
			return herr
		})
		r.finishSpan(hop, okOutcome(err))
		if err == nil {
			r.routed.Add(1)
			r.shardCtrs[hinted].owned.Add(1)
			if cc != nil && r.spanningKinds[cc.Kind] {
				rc.consumeMirrors(cc.ID, hinted, spanCtx(root, tr))
			}
			r.finishSpan(root, "ok")
			return daemon.Response{OK: true, Context: cc, TraceID: tr.TraceID}
		}
		r.forgetLatest(req.Kind, req.Subject, hinted)
		lastErr = shardError(hinted, err)
	}
	r.scattered.Add(1)
	for _, shard := range r.ring.Addrs() {
		if hadHint && shard == hinted {
			continue // already answered above
		}
		hop := r.startSpan("shard_use_latest", shard, spanCtx(root, tr))
		var cc *ctx.Context
		err := rc.withStaleRetry(shard, func(cl *daemon.Client) error {
			var herr error
			cc, herr = cl.UseLatestTrace(req.Kind, req.Subject, spanCtx(hop, tr))
			return herr
		})
		r.finishSpan(hop, okOutcome(err))
		if err != nil {
			lastErr = shardError(shard, err)
			continue
		}
		r.shardCtrs[shard].owned.Add(1)
		if cc != nil && r.spanningKinds[cc.Kind] {
			rc.consumeMirrors(cc.ID, shard, spanCtx(root, tr))
		}
		r.finishSpan(root, "ok")
		return daemon.Response{OK: true, Context: cc, TraceID: tr.TraceID}
	}
	r.finishSpan(root, "error")
	return lastErr
}

// handleProvenance scatters the provenance query to every shard and
// merges the rings' events newest-first by logical clock (per-node Seq
// numbers are not comparable across shards).
func (rc *routerConn) handleProvenance(req *daemon.Request) daemon.Response {
	r := rc.r
	var events []telemetry.ResolutionEvent
	reached := 0
	for _, shard := range r.ring.Addrs() {
		cl, err := rc.client(shard)
		if err != nil {
			continue
		}
		evs, err := cl.Provenance(req.Limit)
		if err != nil {
			continue
		}
		reached++
		events = append(events, evs...)
	}
	if reached == 0 {
		return errResp(daemon.CodeApp, errors.New("provenance: no shard reachable"))
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Clock.After(events[j].Clock) })
	if req.Limit > 0 && len(events) > req.Limit {
		events = events[:req.Limit]
	}
	return daemon.Response{OK: true, Provenance: events}
}

// handleStats merges every reachable shard's counters (the shards
// partition the pool, so field-wise sums are the cluster totals) and
// attaches the router's own counters and telemetry.
func (rc *routerConn) handleStats() daemon.Response {
	r := rc.r
	var mwList []middleware.Stats
	var plList []pool.Stats
	for _, shard := range r.ring.Addrs() {
		cl, err := rc.client(shard)
		if err != nil {
			r.opt.Logf("cluster: router: stats dial %s: %v", shard, err)
			continue
		}
		mw, pl, err := cl.Stats()
		if err != nil {
			r.opt.Logf("cluster: router: stats from %s: %v", shard, err)
			continue
		}
		mwList = append(mwList, mw)
		plList = append(plList, pl)
	}
	if len(mwList) == 0 {
		return errResp(daemon.CodeApp, errors.New("stats: no shard reachable"))
	}
	mw, pl := sumStats(mwList, plList)
	rs := r.Stats()
	resp := daemon.Response{OK: true, Middleware: &mw, Pool: &pl, Router: &rs}
	if r.opt.Telemetry != nil {
		resp.Telemetry = r.opt.Telemetry.Snapshot()
	}
	return resp
}

// handleSituations OR-merges the shards' activation maps: a situation is
// active cluster-wide when any shard's pool activates it.
func (rc *routerConn) handleSituations() daemon.Response {
	r := rc.r
	merged := make(map[string]bool)
	reached := 0
	for _, shard := range r.ring.Addrs() {
		cl, err := rc.client(shard)
		if err != nil {
			continue
		}
		active, err := cl.Situations()
		if err != nil {
			continue
		}
		reached++
		for name, on := range active {
			merged[name] = merged[name] || on
		}
	}
	if reached == 0 {
		return errResp(daemon.CodeApp, errors.New("situations: no shard reachable"))
	}
	return daemon.Response{OK: true, Active: merged}
}

// handleSubscribe registers the subscription on every shard and
// OR-aggregates their pushes: the downstream client sees one activation
// when the first shard activates and one deactivation when the last
// deactivates.
func (rc *routerConn) handleSubscribe(req *daemon.Request) daemon.Response {
	if req.SubID == "" {
		return errResp(daemon.CodeApp, errors.New("subscribe: missing subscription id"))
	}
	if (req.Situation == "") == (req.Formula == "") {
		return errResp(daemon.CodeApp,
			errors.New("subscribe: exactly one of situation and formula must be set"))
	}
	rc.subsMu.Lock()
	if _, dup := rc.subs[req.SubID]; dup {
		rc.subsMu.Unlock()
		return errResp(daemon.CodeDupSubscription,
			fmt.Errorf("subscription %q already registered", req.SubID))
	}
	st := &subState{active: make(map[string]bool)}
	rc.subs[req.SubID] = st
	rc.subsMu.Unlock()

	subID := req.SubID
	var registered []*daemon.Client
	for _, shard := range rc.r.ring.Addrs() {
		cl, err := rc.client(shard)
		if err == nil {
			h := rc.forwarder(subID, shard, st)
			if req.Situation != "" {
				err = cl.Subscribe(subID, req.Situation, h)
			} else {
				err = cl.SubscribeFormula(subID, req.Formula, h)
			}
		}
		if err != nil {
			for _, prev := range registered {
				_ = prev.Unsubscribe(subID)
			}
			rc.subsMu.Lock()
			delete(rc.subs, subID)
			rc.subsMu.Unlock()
			return shardError(shard, err)
		}
		registered = append(registered, cl)
	}
	return daemon.Response{OK: true, SubID: subID}
}

// forwarder builds the per-shard event handler for one subscription.
// Handlers run on the upstream clients' read goroutines; the peer
// serializes their pushes with the serving loop's responses.
func (rc *routerConn) forwarder(subID, shard string, st *subState) daemon.EventHandler {
	return func(_ string, ev daemon.WireEvent) {
		st.mu.Lock()
		st.active[shard] = ev.Type == "activated"
		cur := false
		for _, on := range st.active {
			cur = cur || on
		}
		changed := cur != st.cur
		st.cur = cur
		st.mu.Unlock()
		if !changed {
			return
		}
		typ := "deactivated"
		if cur {
			typ = "activated"
		}
		rc.peer.Push(daemon.Response{OK: true, Push: true, SubID: subID,
			Event: &daemon.WireEvent{Situation: ev.Situation, Type: typ, At: ev.At}})
	}
}

func (rc *routerConn) handleUnsubscribe(req *daemon.Request) daemon.Response {
	rc.subsMu.Lock()
	_, had := rc.subs[req.SubID]
	delete(rc.subs, req.SubID)
	rc.subsMu.Unlock()
	if !had {
		return errResp(daemon.CodeApp,
			fmt.Errorf("unsubscribe: unknown subscription %q", req.SubID))
	}
	for _, cl := range rc.ups {
		_ = cl.Unsubscribe(req.SubID)
	}
	return daemon.Response{OK: true, SubID: req.SubID}
}

package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/pool"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// RouterOptions configures a shard router gateway.
type RouterOptions struct {
	// Shards are the shard daemons' protocol addresses; they define the
	// hash ring. Each element is either a single address or a replica
	// set "primary|replica[|replica...]" (see ParseShardSpec): the ring
	// is keyed by the set's primary — hashing is identical with or
	// without replicas listed — and the router health-probes the members,
	// re-pointing the shard's traffic at whichever reachable member
	// reports the highest fencing epoch (a promoted follower).
	Shards []string
	// ProbeEvery is the member health-probe cadence for replica-set
	// shards (default 500ms; irrelevant without replica sets).
	ProbeEvery time.Duration
	// Replicas is the virtual-node count per shard (0 = default).
	Replicas int
	// Checker supplies the constraint set for the spanning analysis: a
	// constraint that constraint.SourceLocal cannot prove shard-local
	// forces the mirror path for every context kind it quantifies over.
	Checker *constraint.Checker
	// Timeout bounds each upstream round trip (0 = client default).
	Timeout time.Duration
	// Serve tunes the downstream serving loop — the same daemon.Serve
	// options a shard daemon takes (idle timeout, connection cap, drain
	// timeout, ...); the middleware-only ones are inert here.
	Serve []daemon.Option
	// Telemetry registers the routing counters, and the serving loop's
	// transport and request instruments, when set.
	Telemetry *telemetry.Registry
	// SpanSink records the router's distributed-tracing spans: one root
	// span per routed operation plus one child span per shard hop (owner
	// and mirrors). The router offers tracing to its upstream shard
	// clients and forwards each hop's span as the parent of the shard's
	// pipeline spans, so one trace covers gateway, shards, followers, and
	// pushes. Nil disables tracing.
	SpanSink telemetry.SpanSink
	// TraceSample roots a fresh trace on this fraction (0..1] of
	// operations arriving without trace context (ctxmwd's -trace-sample).
	// Zero never roots: the router then only joins traces started by its
	// callers.
	TraceSample float64
	// Logf receives per-connection and mirror-failure notices; nil silences.
	Logf func(format string, args ...any)
}

// Router is a wire-compatible gateway in front of N shard daemons. It
// partitions the context pool by ctx.Source over a consistent-hash ring:
// every operation for a source lands on its owning shard, so each
// shard's pool is exactly the single-node pool restricted to its
// sources.
//
// Constraints that provably never relate contexts from different sources
// (constraint.SourceLocal) are then checked shard-locally with results
// identical to a global check. For the remaining spanning constraints,
// submissions of their kinds take a logged, counted scatter path: the
// context is mirrored to every shard, so each shard still evaluates
// those constraints against the full universe of relevant contexts. The
// ring owner's response is authoritative; mirror responses are
// discarded.
type Router struct {
	opt  RouterOptions
	ring *Ring
	// srv is the shared serving loop; every downstream connection's
	// handler is a routerConn.
	srv *daemon.Loop

	// spanningKinds maps each context kind quantified by a non-local
	// constraint to the mirror path; spanningNames lists those
	// constraints for the stats op.
	spanningKinds map[ctx.Kind]bool
	spanningNames []string

	routed    atomic.Int64
	scattered atomic.Int64
	shardCtrs map[string]*shardCounters // keyed by ring key (set primary), fixed at start

	// sets maps each ring key to its replica set; failovers counts
	// re-points across all sets. epochGauge exports each set's observed
	// epoch, labeled by ring key.
	sets       map[string]*shardSet
	failovers  atomic.Int64
	epochGauge *telemetry.GaugeVec

	// latestShard remembers, per (kind, subject), the owner shard of the
	// most recently routed submission, so use-latest can go straight to
	// the shard holding the newest matching context. It is a hint, not
	// ground truth: a miss, a stale entry, or an evicted one falls back
	// to the ring-order probe, so the map is capped (maxLatestEntries)
	// and entries are dropped when the hinted shard answers not-found.
	latestMu    sync.Mutex
	latestShard map[latestKey]string

	// sampler elects untraced operations to root fresh traces
	// (RouterOptions.TraceSample); nil never roots.
	sampler *telemetry.Sampler

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type shardCounters struct {
	owned    atomic.Int64
	mirrored atomic.Int64
}

// shardSet is one ring position's replica set: the configured primary
// (the ring key), its members, and the member currently serving.
type shardSet struct {
	primary string
	members []string

	mu     sync.Mutex
	active string
	epoch  uint64 // highest fencing epoch observed from any member

	failovers atomic.Int64
	probes    map[string]*daemon.Client // probe goroutine only
}

// Active is the member currently serving this shard's traffic.
func (s *shardSet) Active() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Epoch is the highest fencing epoch observed from any member.
func (s *shardSet) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// others lists the members except active, for the client's dial
// rotation.
func (s *shardSet) others(active string) []string {
	var out []string
	for _, m := range s.members {
		if m != active {
			out = append(out, m)
		}
	}
	return out
}

// ParseShardSpec parses one -shards element: a single daemon address,
// or a replica set "primary|replica[|replica...]" whose members all
// serve the same journal (one leader plus its followers). The primary
// is the ring key. Members must be non-empty and unique within the set.
func ParseShardSpec(spec string) ([]string, error) {
	parts := strings.Split(spec, "|")
	seen := make(map[string]bool, len(parts))
	members := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("cluster: shard spec %q: empty member", spec)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: shard spec %q: duplicate member %q", spec, p)
		}
		seen[p] = true
		members = append(members, p)
	}
	return members, nil
}

// ParseShardSpecs parses every -shards element and rejects an address
// appearing in more than one set (a member cannot serve two ring
// positions).
func ParseShardSpecs(specs []string) ([][]string, error) {
	seen := make(map[string]string)
	sets := make([][]string, 0, len(specs))
	for _, spec := range specs {
		members, err := ParseShardSpec(spec)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if prev, dup := seen[m]; dup {
				return nil, fmt.Errorf("cluster: shard member %q appears in both %q and %q", m, prev, spec)
			}
			seen[m] = spec
		}
		sets = append(sets, members)
	}
	return sets, nil
}

type latestKey struct {
	kind    ctx.Kind
	subject string
}

// ServeRouter starts a router gateway listening on addr.
func ServeRouter(addr string, opt RouterOptions) (*Router, error) {
	r, err := newRouter(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: router listen: %w", err)
	}
	r.serve(ln)
	return r, nil
}

// newRouter validates opt and builds a router that serves nothing until
// serve hands it a listener.
func newRouter(opt RouterOptions) (*Router, error) {
	if len(opt.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard address")
	}
	sets, err := ParseShardSpecs(opt.Shards)
	if err != nil {
		return nil, err
	}
	primaries := make([]string, len(sets))
	for i, members := range sets {
		primaries[i] = members[0]
	}
	ring, err := NewRing(primaries, opt.Replicas)
	if err != nil {
		return nil, err
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.ProbeEvery <= 0 {
		opt.ProbeEvery = 500 * time.Millisecond
	}
	r := &Router{
		opt:           opt,
		ring:          ring,
		spanningKinds: make(map[ctx.Kind]bool),
		shardCtrs:     make(map[string]*shardCounters),
		sets:          make(map[string]*shardSet),
		latestShard:   make(map[latestKey]string),
		sampler:       telemetry.NewSampler(opt.TraceSample),
		stop:          make(chan struct{}),
	}
	for _, shard := range ring.Addrs() {
		r.shardCtrs[shard] = &shardCounters{}
	}
	for _, members := range sets {
		r.sets[members[0]] = &shardSet{
			primary: members[0],
			members: members,
			active:  members[0],
			probes:  make(map[string]*daemon.Client),
		}
	}
	if opt.Checker != nil {
		for _, c := range opt.Checker.Constraints() {
			if constraint.SourceLocal(c.Formula) {
				continue
			}
			r.spanningNames = append(r.spanningNames, c.Name)
			for k := range constraint.FormulaKinds(c.Formula) {
				r.spanningKinds[k] = true
			}
		}
		sort.Strings(r.spanningNames)
	}
	if reg := opt.Telemetry; reg != nil {
		reg.CounterFunc("ctxres_router_routed_total", "Operations routed to exactly the owning shard.",
			func() float64 { return float64(r.routed.Load()) })
		reg.CounterFunc("ctxres_router_scattered_total", "Operations fanned out beyond the owning shard (spanning-kind mirrors and multi-shard probes).",
			func() float64 { return float64(r.scattered.Load()) })
		reg.GaugeFunc("ctxres_router_shards", "Shards in the hash ring.",
			func() float64 { return float64(len(ring.Addrs())) })
		reg.GaugeFunc("ctxres_router_spanning_constraints", "Constraints forced onto the mirror path by the source-locality analysis.",
			func() float64 { return float64(len(r.spanningNames)) })
		reg.CounterFunc("ctxres_router_failovers_total", "Shard re-points at a different replica-set member (probe-observed promotions plus stale-leader rotations).",
			func() float64 { return float64(r.failovers.Load()) })
		r.epochGauge = reg.GaugeVec("ctxres_router_shard_epoch", "Highest fencing epoch the router has observed per shard (labeled by the set's primary address).", "shard")
		for key := range r.sets {
			r.epochGauge.With(key).Set(0)
		}
	}
	return r, nil
}

// serve starts the serving loop on ln (owned from here on) and, with
// replica sets configured, the probe loop.
func (r *Router) serve(ln net.Listener) {
	opts := append([]daemon.Option(nil), r.opt.Serve...)
	if r.opt.Telemetry != nil {
		opts = append(opts, daemon.WithTelemetry(r.opt.Telemetry))
	}
	if r.opt.SpanSink != nil {
		// Like a shard daemon, the router acks a hello's trace offer only
		// when it can record spans itself.
		opts = append(opts, daemon.WithTracing(r.opt.SpanSink, nil))
	}
	r.srv = daemon.ServeLoop(ln, func(p *daemon.Peer) daemon.Handler {
		return &routerConn{
			r:         r,
			peer:      p,
			ups:       make(map[string]*daemon.Client),
			upsActive: make(map[string]string),
			subs:      make(map[string]*subState),
		}
	}, opts...)
	for _, set := range r.sets {
		if len(set.members) > 1 {
			r.wg.Add(1)
			go r.probeLoop()
			break
		}
	}
}

// probeLoop health-probes every multi-member replica set, following
// fencing epochs: each tick it asks every member for its journal stats
// and re-points the set's traffic at the reachable member with the
// highest epoch. A fenced old leader still answers stats — with a lower
// epoch than the promoted follower's — so max-epoch-wins converges on
// the promoted side even while both are reachable.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	defer func() {
		for _, s := range r.sets {
			for _, cl := range s.probes {
				_ = cl.Close()
			}
		}
	}()
	t := time.NewTicker(r.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, shard := range r.ring.Addrs() {
			s := r.sets[shard]
			if s == nil || len(s.members) < 2 {
				continue
			}
			r.probeSet(s)
		}
	}
}

// probeSet probes one set's members and re-points its active member.
// The current member is kept unless it is unreachable or another member
// reports a strictly higher epoch, so healthy sets never flap.
func (r *Router) probeSet(s *shardSet) {
	cur := s.Active()
	var best string
	var bestEpoch, curEpoch uint64
	curReachable := false
	for _, m := range s.members {
		st, err := s.probeStats(m, r.probeTimeout())
		if err != nil {
			continue
		}
		var epoch uint64
		if st != nil {
			epoch = st.Epoch
		}
		if m == cur {
			curReachable = true
			curEpoch = epoch
		}
		if best == "" || epoch > bestEpoch {
			best, bestEpoch = m, epoch
		}
	}
	if best == "" {
		return // no member reachable; keep the current pointer
	}
	if curReachable && curEpoch >= bestEpoch {
		best, bestEpoch = cur, curEpoch
	}
	s.mu.Lock()
	changed := best != s.active
	s.active = best
	if bestEpoch > s.epoch {
		s.epoch = bestEpoch
	}
	epoch := s.epoch
	s.mu.Unlock()
	r.epochGauge.With(s.primary).Set(float64(epoch))
	if changed {
		s.failovers.Add(1)
		r.failovers.Add(1)
		r.opt.Logf("cluster: router: shard %s now served by %s (epoch %d)", s.primary, best, epoch)
	}
}

// probeTimeout bounds one probe round trip: the configured upstream
// timeout, capped so a hung member cannot stall the probe cadence.
func (r *Router) probeTimeout() time.Duration {
	d := r.opt.Timeout
	if d <= 0 || d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// probeStats fetches one member's journal stats over a cached probe
// client (dropped on any failure so the next round redials).
func (s *shardSet) probeStats(member string, timeout time.Duration) (*wal.Stats, error) {
	cl := s.probes[member]
	if cl == nil {
		var err error
		cl, err = daemon.DialOptions(member, daemon.ClientOptions{
			Timeout: timeout, MaxAttempts: 1, Role: daemon.RoleRouter,
		})
		if err != nil {
			return nil, err
		}
		s.probes[member] = cl
	}
	st, err := cl.JournalStats()
	if err != nil {
		_ = cl.Close()
		delete(s.probes, member)
		return nil, err
	}
	return st, nil
}

// noteStaleLeader records a stale-leader-triggered rotation on a
// shard's upstream client: the deposed member answered, so the client
// rotated to another member mid-operation, ahead of the probe loop.
func (r *Router) noteStaleLeader(shard string) {
	if s := r.sets[shard]; s != nil {
		s.failovers.Add(1)
	}
	r.failovers.Add(1)
}

// Addr returns the router's listen address.
func (r *Router) Addr() net.Addr { return r.srv.Addr() }

// Spanning returns the constraint names on the mirror path, sorted.
func (r *Router) Spanning() []string {
	out := make([]string, len(r.spanningNames))
	copy(out, r.spanningNames)
	return out
}

// Stats snapshots the routing counters.
func (r *Router) Stats() daemon.RouterStats {
	rs := daemon.RouterStats{
		Routed:              r.routed.Load(),
		Scattered:           r.scattered.Load(),
		SpanningConstraints: r.Spanning(),
		Failovers:           r.failovers.Load(),
	}
	for _, shard := range r.ring.Addrs() {
		c := r.shardCtrs[shard]
		ss := daemon.RouterShardStats{
			Addr:     shard,
			Owned:    c.owned.Load(),
			Mirrored: c.mirrored.Load(),
		}
		// Replica-set detail only for sets that actually have replicas,
		// keeping single-member stats output identical to pre-failover.
		if s := r.sets[shard]; s != nil && len(s.members) > 1 {
			ss.Members = append([]string(nil), s.members...)
			ss.Active = s.Active()
			ss.Epoch = s.Epoch()
			ss.Failovers = s.failovers.Load()
		}
		rs.Shards = append(rs.Shards, ss)
	}
	return rs
}

// Shutdown stops accepting, drains in-flight requests, closes every
// downstream connection (and with them their upstream fan-out clients),
// and waits for the serving and probe goroutines.
func (r *Router) Shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.srv.Shutdown()
	r.wg.Wait()
}

// owner returns the shard owning a source's contexts.
func (r *Router) owner(source string) string { return r.ring.Owner(source) }

// traceFor resolves the trace context one routed operation runs under:
// join the caller's trace when the request carries one, or root a fresh
// trace when the sampler elects an untraced request. Zero without a span
// sink — tracing is then off end to end.
func (r *Router) traceFor(req *daemon.Request) telemetry.TraceContext {
	if r.opt.SpanSink == nil {
		return telemetry.TraceContext{}
	}
	if req.TraceID != "" {
		return telemetry.TraceContext{TraceID: req.TraceID, SpanID: req.SpanID}
	}
	if r.sampler.Sample() {
		return telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	}
	return telemetry.TraceContext{}
}

// startSpan opens a router-side span in tr's trace; nil when the
// operation is untraced.
func (r *Router) startSpan(op, id string, tr telemetry.TraceContext) *telemetry.Span {
	if r.opt.SpanSink == nil || !tr.Sampled() {
		return nil
	}
	return &telemetry.Span{
		Op:       op,
		ID:       id,
		TraceID:  tr.TraceID,
		ParentID: tr.SpanID,
		SpanID:   telemetry.NewSpanID(),
		Start:    time.Now(),
	}
}

// finishSpan stamps the outcome and duration and records the span.
func (r *Router) finishSpan(sp *telemetry.Span, outcome string) {
	if sp == nil {
		return
	}
	sp.Outcome = outcome
	sp.Seconds = time.Since(sp.Start).Seconds()
	r.opt.SpanSink.RecordSpan(sp)
}

// spanCtx is the trace context operations under sp run in: sp's own span
// as parent, or the original context when no span was opened.
func spanCtx(sp *telemetry.Span, tr telemetry.TraceContext) telemetry.TraceContext {
	if sp == nil {
		return tr
	}
	return sp.Ctx()
}

// okOutcome maps a hop result to its span outcome label.
func okOutcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// maxLatestEntries caps the use-latest hint map so a long-running router
// with high subject cardinality cannot grow it without bound. Eviction
// is arbitrary: a lost hint only costs the evicted key a probe fan-out.
const maxLatestEntries = 1 << 16

// rememberLatest records the owner shard of the newest accepted
// submission per (kind, subject).
func (r *Router) rememberLatest(c *ctx.Context, shard string) {
	key := latestKey{kind: c.Kind, subject: c.Subject}
	r.latestMu.Lock()
	if _, ok := r.latestShard[key]; !ok && len(r.latestShard) >= maxLatestEntries {
		for k := range r.latestShard {
			delete(r.latestShard, k)
			break
		}
	}
	r.latestShard[key] = shard
	r.latestMu.Unlock()
}

// forgetLatest drops a hint that proved stale, but only while it still
// points at the shard that failed to deliver — a concurrent submission
// may have re-pointed it at a shard that does hold a match.
func (r *Router) forgetLatest(kind ctx.Kind, subject, shard string) {
	key := latestKey{kind: kind, subject: subject}
	r.latestMu.Lock()
	if r.latestShard[key] == shard {
		delete(r.latestShard, key)
	}
	r.latestMu.Unlock()
}

func (r *Router) lookupLatest(kind ctx.Kind, subject string) (string, bool) {
	r.latestMu.Lock()
	defer r.latestMu.Unlock()
	shard, ok := r.latestShard[latestKey{kind: kind, subject: subject}]
	return shard, ok
}

// sumStats merges per-shard middleware and pool counters by field-wise
// addition: the shards partition the pool, so their counters partition
// the cluster totals.
func sumStats(mws []middleware.Stats, pls []pool.Stats) (middleware.Stats, pool.Stats) {
	var mw middleware.Stats
	var pl pool.Stats
	for _, s := range mws {
		mw.Submitted += s.Submitted
		mw.Detected += s.Detected
		mw.Discarded += s.Discarded
		mw.Delivered += s.Delivered
		mw.Rejected += s.Rejected
		mw.Expired += s.Expired
		mw.Situations += s.Situations
		mw.Shards += s.Shards
		mw.PrunedBindings += s.PrunedBindings
		mw.Compactions += s.Compactions
		mw.CompactRemoved += s.CompactRemoved
	}
	for _, s := range pls {
		pl.Added += s.Added
		pl.Discarded += s.Discarded
		pl.Expired += s.Expired
		pl.Used += s.Used
		pl.Checking += s.Checking
		pl.Available += s.Available
	}
	return mw, pl
}

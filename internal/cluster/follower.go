package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// FollowerOptions configures a replication follower.
type FollowerOptions struct {
	// Leader is the leader daemon's protocol address.
	Leader string
	// Dir is the follower's own journal directory; shipped records are
	// appended here verbatim (leader sequence numbers preserved) and
	// promotion recovers from it.
	Dir string
	// Fsync is the local journal's sync policy (zero value = wal default).
	Fsync wal.FsyncPolicy
	// Dial overrides the transport dialer (tests inject failures here).
	// Default: 10s TCP dial.
	Dial func(addr string) (net.Conn, error)
	// RedialMin/RedialMax bound the capped exponential backoff between
	// replication sessions (defaults 100ms and 2s).
	RedialMin time.Duration
	RedialMax time.Duration
	// StallTimeout bounds one stream read. Leader heartbeats arrive every
	// few hundred milliseconds, so a read stalled past this means the
	// leader (or the path to it) is gone and the session redials.
	// Default 10s.
	StallTimeout time.Duration
	// AckEvery is the cadence of upstream position reports (OpReplAck)
	// on a live session — the leader's lease renewals. Default 200ms.
	AckEvery time.Duration
	// PromoteAfter auto-signals promotion (see AutoPromote) once the
	// follower has been without a healthy leader session this long.
	// Zero disables the trigger; Promote can always be called manually.
	PromoteAfter time.Duration
	// Telemetry registers lag gauges and the promotion counter when set.
	Telemetry *telemetry.Registry
	// SpanSink records a "repl_apply" span for every traced record landed
	// in the local journal (parented on the span stamped into the record
	// by the leader's pipeline), timing the local append. Nil disables.
	SpanSink telemetry.SpanSink
	// Logf receives one line per session transition; nil silences.
	Logf func(format string, args ...any)
}

// Follower tails a leader's journal over OpReplicate into a local
// journal. It is a pure log sink: no middleware runs until Promote
// replays the local journal through middleware.Recover, which makes the
// promoted state byte-identical to the leader's acknowledged prefix by
// construction — both sides applied the exact same records.
type Follower struct {
	opt FollowerOptions
	j   *wal.Journal

	stop chan struct{}
	done chan struct{}

	mu            sync.Mutex
	leaderSeq     uint64
	leaderDurable uint64
	leaderPending int64
	leaderEpoch   uint64
	connected     bool
	lastHealthy   time.Time

	autoPromote   chan struct{}
	promoteOnce   sync.Once
	promotions    atomic.Int64
	resyncs       atomic.Int64
	snapsImported atomic.Int64
	acksSent      atomic.Int64
	heartbeats    atomic.Int64
	closed        atomic.Bool
}

// StartFollower opens the local journal and starts tailing the leader.
func StartFollower(opt FollowerOptions) (*Follower, error) {
	if opt.Leader == "" {
		return nil, errors.New("cluster: follower needs a leader address")
	}
	if opt.Dir == "" {
		return nil, errors.New("cluster: follower needs a journal directory")
	}
	if opt.Dial == nil {
		opt.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	if opt.RedialMin <= 0 {
		opt.RedialMin = 100 * time.Millisecond
	}
	if opt.RedialMax < opt.RedialMin {
		opt.RedialMax = 2 * time.Second
	}
	if opt.StallTimeout <= 0 {
		opt.StallTimeout = 10 * time.Second
	}
	if opt.AckEvery <= 0 {
		opt.AckEvery = 200 * time.Millisecond
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	j, err := wal.Open(wal.Options{Dir: opt.Dir, Fsync: opt.Fsync})
	if err != nil {
		return nil, fmt.Errorf("cluster: follower journal: %w", err)
	}
	f := &Follower{
		opt:         opt,
		j:           j,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		autoPromote: make(chan struct{}),
	}
	f.mu.Lock()
	f.lastHealthy = time.Now()
	f.mu.Unlock()
	if reg := opt.Telemetry; reg != nil {
		reg.GaugeFunc("ctxres_repl_lag_records", "Journal records the follower is behind the leader's last appended sequence.",
			func() float64 { rec, _ := f.Lag(); return float64(rec) })
		reg.GaugeFunc("ctxres_repl_lag_bytes", "Framed bytes queued for this follower on the leader, per its last heartbeat.",
			func() float64 { _, b := f.Lag(); return float64(b) })
		reg.GaugeFunc("ctxres_repl_connected", "1 while a replication session to the leader is live.",
			func() float64 {
				f.mu.Lock()
				defer f.mu.Unlock()
				if f.connected {
					return 1
				}
				return 0
			})
		reg.CounterFunc("ctxres_repl_resyncs_total", "Replication sessions restarted (redials after errors or overflow).",
			func() float64 { return float64(f.resyncs.Load()) })
		reg.CounterFunc("ctxres_repl_snapshots_imported_total", "Leader snapshots imported into the follower journal.",
			func() float64 { return float64(f.snapsImported.Load()) })
		reg.CounterFunc("ctxres_cluster_promotions_total", "Follower promotions to leader.",
			func() float64 { return float64(f.promotions.Load()) })
	}
	go f.run()
	return f, nil
}

// LastSeq is the follower's last locally appended journal sequence.
func (f *Follower) LastSeq() uint64 { return f.j.LastSeq() }

// Lag returns how far the follower trails the leader: records behind the
// leader's last appended sequence, and the framed bytes the leader had
// queued for this follower at its last heartbeat. Both are zero until
// the first heartbeat arrives.
func (f *Follower) Lag() (records uint64, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	last := f.j.LastSeq()
	if f.leaderSeq > last {
		records = f.leaderSeq - last
	}
	return records, f.leaderPending
}

// LeaderPositions returns the last heartbeat's view of the leader.
func (f *Follower) LeaderPositions() (lastSeq, durableSeq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderSeq, f.leaderDurable
}

// LeaderEpoch is the fencing epoch announced by the leader's last
// heartbeat (zero before the first, or against a pre-fencing leader).
func (f *Follower) LeaderEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaderEpoch
}

// Resyncs counts replication sessions restarted — the follower's redial
// attempts, surfaced on /statusz alongside the telemetry counter.
func (f *Follower) Resyncs() int64 { return f.resyncs.Load() }

// AcksSent counts position reports sent upstream (lease renewals).
func (f *Follower) AcksSent() int64 { return f.acksSent.Load() }

// Heartbeats counts leader heartbeats received. The leader interleaves
// heartbeats only once its disk catch-up has spliced onto the live
// queue, so a nonzero count means the session is fully live: records
// appended on the leader from here on ship through the live tap.
func (f *Follower) Heartbeats() int64 { return f.heartbeats.Load() }

// AutoPromote is closed when the follower has been without a healthy
// leader session for PromoteAfter. The follower keeps redialing either
// way; the caller decides whether to Promote.
func (f *Follower) AutoPromote() <-chan struct{} { return f.autoPromote }

// Stop ends the replication loop and closes the local journal.
func (f *Follower) Stop() error {
	if f.closed.Swap(true) {
		<-f.done
		return nil
	}
	close(f.stop)
	<-f.done
	return f.j.Close()
}

// Promote stops replication and replays the local journal into a fresh
// middleware via middleware.Recover, exactly like a crash restart would:
// the returned middleware's durable state is byte-identical to the
// leader's state at the follower's last appended sequence. build must
// construct the middleware with the leader's configuration and no
// journal attached; the caller re-opens the journal afterwards (wal.Open
// on the same dir) and attaches it to keep journaling as the new leader.
func (f *Follower) Promote(build func() *middleware.Middleware) (*middleware.Middleware, *middleware.RecoveryReport, error) {
	if err := f.Stop(); err != nil {
		return nil, nil, fmt.Errorf("cluster: promote: close journal: %w", err)
	}
	m, rep, err := middleware.Recover(f.opt.Dir, build)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: promote: %w", err)
	}
	f.promotions.Add(1)
	f.opt.Logf("cluster: promoted at seq %d (%d commands replayed)", rep.LastSeq, rep.Commands)
	return m, rep, nil
}

// run is the session loop: dial, stream, classify the failure, back off,
// redial from the local position. Every session is lossless — the
// replicate request carries the local LastSeq, so nothing is ever
// skipped or doubled.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opt.RedialMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		start := time.Now()
		err := f.session()
		if f.isStopped() {
			return
		}
		f.resyncs.Add(1)
		f.opt.Logf("cluster: replication session ended after %v: %v", time.Since(start).Round(time.Millisecond), err)
		if time.Since(start) > f.opt.RedialMax {
			backoff = f.opt.RedialMin // a session that ran a while earns a fresh ladder
		}
		f.checkPromoteDeadline()
		// Jittered sleep (half fixed, half random): a leader bounce
		// disconnects every follower at once, and without jitter they all
		// redial in lockstep on the capped ladder — a reconnect storm the
		// leader absorbs as a synchronized accept+catch-up burst forever.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-f.stop:
			return
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > f.opt.RedialMax {
			backoff = f.opt.RedialMax
		}
	}
}

func (f *Follower) isStopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// checkPromoteDeadline trips the auto-promote signal once the follower
// has been leaderless past PromoteAfter.
func (f *Follower) checkPromoteDeadline() {
	if f.opt.PromoteAfter <= 0 {
		return
	}
	f.mu.Lock()
	leaderless := time.Since(f.lastHealthy)
	f.mu.Unlock()
	if leaderless >= f.opt.PromoteAfter {
		f.promoteOnce.Do(func() {
			f.opt.Logf("cluster: leader unreachable for %v, signaling promotion", leaderless.Round(time.Millisecond))
			close(f.autoPromote)
		})
	}
}

// session runs one replication connection: hello (role follower, binary
// frames), replicate from the local position, then append every pushed
// frame until the stream breaks.
func (f *Follower) session() error {
	nc, err := f.opt.Dial(f.opt.Leader)
	if err != nil {
		return err
	}
	conn := daemon.NewConn(nc)
	defer conn.Close()
	if err := f.exchange(conn, daemon.Request{
		Op: daemon.OpHello, Format: daemon.FormatBinary, Role: daemon.RoleFollower,
	}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	fromSeq := f.j.LastSeq()
	if err := f.exchange(conn, daemon.Request{
		Op: daemon.OpReplicate, FromSeq: fromSeq,
	}); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	f.setConnected(true)
	defer f.setConnected(false)
	f.opt.Logf("cluster: replicating from %s starting at seq %d", f.opt.Leader, fromSeq+1)

	// The ack writer is the connection's sole writer from here on (the
	// handshake exchanges above have completed): it reports the local
	// durable position upstream every AckEvery, renewing the leader's
	// lease. It is joined before session returns — the journal may be
	// closed right after — with the conn closed first so a writer stuck
	// in a send unblocks instead of riding out its write deadline.
	ackStop := make(chan struct{})
	var ackWG sync.WaitGroup
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		f.ackLoop(conn, ackStop)
	}()
	defer func() {
		close(ackStop)
		_ = conn.Close()
		ackWG.Wait()
	}()

	for {
		if f.isStopped() {
			return nil
		}
		_ = conn.SetReadDeadline(time.Now().Add(f.opt.StallTimeout))
		body, err := conn.ReadFrame()
		if err != nil {
			return fmt.Errorf("stream read: %w", err)
		}
		var resp daemon.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("stream decode: %w", err)
		}
		if !resp.OK {
			return fmt.Errorf("stream error: %s (%s)", resp.Error, resp.Code)
		}
		if resp.Repl == nil {
			continue
		}
		if err := f.apply(*resp.Repl); err != nil {
			return err
		}
	}
}

// apply lands one replication frame in the local journal.
func (f *Follower) apply(frame daemon.ReplFrame) error {
	switch {
	case frame.Record != nil:
		if frame.Record.Seq <= f.j.LastSeq() {
			return nil // replay overlap after a resume; already appended
		}
		var start time.Time
		if f.opt.SpanSink != nil && frame.Record.TraceID != "" {
			start = time.Now()
		}
		if _, err := f.j.AppendShipped(*frame.Record); err != nil {
			return fmt.Errorf("append seq %d: %w", frame.Record.Seq, err)
		}
		if !start.IsZero() {
			f.opt.SpanSink.RecordSpan(&telemetry.Span{
				Op:       "repl_apply",
				ID:       fmt.Sprintf("seq %d", frame.Record.Seq),
				TraceID:  frame.Record.TraceID,
				ParentID: frame.Record.SpanID,
				SpanID:   telemetry.NewSpanID(),
				Start:    start,
				Seconds:  time.Since(start).Seconds(),
				Outcome:  "applied",
			})
		}
		f.markHealthy()
	case frame.Snapshot != nil:
		if st := f.j.Stats(); frame.Snapshot.Seq <= st.LastSnapshotSeq || frame.Snapshot.Seq < st.LastSeq {
			// A position we already hold — as a snapshot, or covered by
			// appended records. Importing a snapshot behind LastSeq would
			// prune segments holding records past it that the snapshot does
			// not cover, silently losing the acknowledged suffix.
			return nil
		}
		if err := f.j.ImportSnapshot(*frame.Snapshot); err != nil {
			return fmt.Errorf("import snapshot seq %d: %w", frame.Snapshot.Seq, err)
		}
		f.snapsImported.Add(1)
		f.markHealthy()
	case frame.Heartbeat != nil:
		hb := frame.Heartbeat
		f.mu.Lock()
		f.leaderSeq = hb.LastSeq
		f.leaderDurable = hb.DurableSeq
		f.leaderPending = hb.PendingBytes
		f.leaderEpoch = hb.Epoch
		f.lastHealthy = time.Now()
		f.mu.Unlock()
		f.heartbeats.Add(1)
	}
	return nil
}

// ackLoop reports the local durable position upstream on a live session
// until stop closes or a write fails (the session's read side then sees
// the broken stream and redials). Each report renews the leader's lease.
func (f *Follower) ackLoop(conn *daemon.Conn, stop <-chan struct{}) {
	t := time.NewTicker(f.opt.AckEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		payload, err := json.Marshal(daemon.Request{Op: daemon.OpReplAck, FromSeq: f.j.LastSeq()})
		if err != nil {
			return
		}
		if err := conn.WriteFrame(payload, f.opt.StallTimeout); err != nil {
			return
		}
		f.acksSent.Add(1)
	}
}

func (f *Follower) markHealthy() {
	f.mu.Lock()
	f.lastHealthy = time.Now()
	f.mu.Unlock()
}

func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected = v
	if v {
		f.lastHealthy = time.Now()
	}
	f.mu.Unlock()
}

// exchange writes one handshake request and reads its ack; an acked
// hello switches the connection to the binary format it asked for.
func (f *Follower) exchange(conn *daemon.Conn, req daemon.Request) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Now().Add(f.opt.StallTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := conn.WriteFrame(payload, 0); err != nil {
		return err
	}
	body, err := conn.ReadFrame()
	if err != nil {
		return err
	}
	var resp daemon.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("refused: %s (%s)", resp.Error, resp.Code)
	}
	if req.Op == daemon.OpHello {
		if resp.Format != daemon.FormatBinary {
			return fmt.Errorf("leader negotiated format %q, want binary", resp.Format)
		}
		conn.SetFormat(resp.Format)
	}
	return nil
}

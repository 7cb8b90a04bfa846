package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/daemon"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// ShipperOptions tunes the leader-side replication tap.
type ShipperOptions struct {
	// Dir is the leader's journal directory. Feed catch-up reads sealed
	// bytes from here with the read-only wal helpers (never wal.Load,
	// which truncates torn tails and must not run against a live journal).
	Dir string
	// QueueLen is the per-follower live frame queue. A follower that falls
	// further behind than this (while its catch-up phase is not consuming)
	// overflows: its feed fails and the follower redials, resuming from
	// its own last sequence — lossless, just slower. Default 4096.
	QueueLen int
	// HeartbeatEvery is the heartbeat cadence on an otherwise idle stream
	// (default 200ms). Heartbeats carry the leader's positions so the
	// follower can compute its lag even when no records flow.
	HeartbeatEvery time.Duration
	// Telemetry registers the shipper's gauges and counters when set.
	Telemetry *telemetry.Registry
	// SpanSink records a "repl_ship" span for every live traced record
	// written to a feed (parented on the span stamped into the record by
	// the leader's pipeline), measuring tap-to-wire shipping latency.
	// Catch-up replays from disk are not spanned. Nil disables.
	SpanSink telemetry.SpanSink
	// Lease, when set, is renewed by every follower position report
	// (daemon.AckSink): the leader's right to accept writes is then tied
	// to followers actually acking within the lease TTL.
	Lease *Lease
}

// Shipper is the leader half of WAL shipping. It taps the journal's
// append path (wal.Options.Ship / ShipSnapshot run under the journal
// lock, after the record's bytes are in the segment file) and fans the
// records out to follower feeds served over the daemon's OpReplicate.
// It implements daemon.ReplicationSource.
//
// The tap-then-catch-up handoff is race-free without holding the journal
// lock across a disk read: ServeFeed registers its live queue first and
// reads the log from disk second. Ship fires only after the record's
// bytes are written to the (page-cached) segment file, so any record
// tapped before registration is already visible to the disk read, and
// any record tapped after registration is in the queue; the overlap is
// deduplicated by sequence number.
type Shipper struct {
	opt ShipperOptions

	mu    sync.Mutex
	j     *wal.Journal
	feeds map[*feed]struct{}

	overflows atomic.Int64
	served    atomic.Int64
	acks      atomic.Int64
	ackedSeq  atomic.Uint64 // highest follower-reported durable position
}

// feed is one follower's live queue.
type feed struct {
	ch       chan feedFrame
	quit     chan struct{} // closed on overflow; the follower must resync
	quitOnce sync.Once
	pending  atomic.Int64 // framed bytes queued, for heartbeat lag accounting
}

// feedFrame carries one queued frame plus its framed size, so dequeuing
// can settle the pending-bytes gauge the enqueue charged. enq is set
// only for traced records under a span sink, to time the ship span.
type feedFrame struct {
	frame daemon.ReplFrame
	bytes int64
	enq   time.Time
}

func (f *feed) fail() { f.quitOnce.Do(func() { close(f.quit) }) }

// NewShipper builds a shipper for the journal living in opt.Dir. Wire its
// Tap and TapSnapshot into wal.Options.Ship / ShipSnapshot when opening
// the journal, then Attach the opened journal.
func NewShipper(opt ShipperOptions) *Shipper {
	if opt.QueueLen <= 0 {
		opt.QueueLen = 4096
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = 200 * time.Millisecond
	}
	sh := &Shipper{opt: opt, feeds: make(map[*feed]struct{})}
	if reg := opt.Telemetry; reg != nil {
		reg.GaugeFunc("ctxres_repl_followers", "Connected replication feeds.",
			func() float64 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				return float64(len(sh.feeds))
			})
		reg.GaugeFunc("ctxres_repl_pending_bytes", "Framed bytes queued across all replication feeds, not yet written to their streams.",
			func() float64 { return float64(sh.pendingBytes()) })
		reg.CounterFunc("ctxres_repl_feed_overflows_total", "Replication feeds failed because the follower outran the live queue.",
			func() float64 { return float64(sh.overflows.Load()) })
		reg.CounterFunc("ctxres_repl_feeds_served_total", "Replication feeds accepted (one per follower (re)connect).",
			func() float64 { return float64(sh.served.Load()) })
	}
	return sh
}

// Attach hands the shipper the opened journal it is tapping; heartbeats
// read the leader positions from it. Must be called before the daemon
// starts serving OpReplicate.
func (sh *Shipper) Attach(j *wal.Journal) {
	sh.mu.Lock()
	sh.j = j
	sh.mu.Unlock()
}

// FollowerAck implements daemon.AckSink: the daemon forwards every
// OpReplAck read off a live replication stream here. Each ack renews the
// leader lease (when one is configured) — this is the only renewal path,
// so a leader cut off from every follower fences within one TTL.
func (sh *Shipper) FollowerAck(fromSeq uint64) {
	sh.acks.Add(1)
	for {
		old := sh.ackedSeq.Load()
		if fromSeq <= old || sh.ackedSeq.CompareAndSwap(old, fromSeq) {
			break
		}
	}
	sh.opt.Lease.Renew()
}

// Tap is the wal.Options.Ship hook. It runs with the journal lock held,
// so it must never block: each feed gets a non-blocking enqueue, and a
// full queue fails that feed (the follower redials and resumes from its
// own position).
func (sh *Shipper) Tap(r wal.Record, framedBytes int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.feeds) == 0 {
		return
	}
	rec := r
	if rec.Context != nil {
		// Each feed marshals the frame later, on its own goroutine, while
		// the middleware keeps moving the live context through its life
		// cycle: ship the copy taken here, under the append lock.
		c := *rec.Context
		rec.Context = &c
	}
	ff := feedFrame{frame: daemon.ReplFrame{Record: &rec}, bytes: int64(framedBytes)}
	if sh.opt.SpanSink != nil && rec.TraceID != "" {
		ff.enq = time.Now()
	}
	for f := range sh.feeds {
		select {
		case f.ch <- ff:
			f.pending.Add(ff.bytes)
		default:
			sh.overflows.Add(1)
			f.fail()
		}
	}
}

// TapSnapshot is the wal.Options.ShipSnapshot hook: checkpoint snapshots
// are offered to every feed so long-lived followers can prune their own
// logs. Like Tap it runs under the journal lock and never blocks.
func (sh *Shipper) TapSnapshot(snap wal.Snapshot) {
	sn := snap
	ff := feedFrame{frame: daemon.ReplFrame{Snapshot: &sn}}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for f := range sh.feeds {
		select {
		case f.ch <- ff:
		default:
			sh.overflows.Add(1)
			f.fail()
		}
	}
}

// ShipperStats is a point-in-time view of the leader's replication tap,
// the statusz complement to the ctxres_repl_* metrics.
type ShipperStats struct {
	// Followers is the number of live replication feeds.
	Followers int `json:"followers"`
	// PendingBytes is the framed bytes queued across all feeds.
	PendingBytes int64 `json:"pendingBytes"`
	// Overflows counts feeds failed because a follower outran its queue.
	Overflows int64 `json:"overflows"`
	// FeedsServed counts feeds accepted (one per follower (re)connect).
	FeedsServed int64 `json:"feedsServed"`
	// Acks counts follower position reports received (lease renewals).
	Acks int64 `json:"acks,omitempty"`
	// AckedSeq is the highest follower-reported durable position.
	AckedSeq uint64 `json:"ackedSeq,omitempty"`
}

// Stats snapshots the shipper's counters.
func (sh *Shipper) Stats() ShipperStats {
	sh.mu.Lock()
	followers := len(sh.feeds)
	sh.mu.Unlock()
	return ShipperStats{
		Followers:    followers,
		PendingBytes: sh.pendingBytes(),
		Overflows:    sh.overflows.Load(),
		FeedsServed:  sh.served.Load(),
		Acks:         sh.acks.Load(),
		AckedSeq:     sh.ackedSeq.Load(),
	}
}

func (sh *Shipper) pendingBytes() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var total int64
	for f := range sh.feeds {
		total += f.pending.Load()
	}
	return total
}

// errFeedOverflow reports a follower that fell behind its live queue.
var errFeedOverflow = errors.New("cluster: replication feed overflow")

// ServeFeed implements daemon.ReplicationSource: it streams every journal
// frame with sequence > fromSeq through send, in order, until the write
// fails, stop closes, or the follower falls behind the live queue.
//
// Phase one registers the live queue and catches the follower up from
// disk: when the leader has pruned the requested prefix, the newest
// snapshot is sent first, then every on-disk record past it. Phase two
// splices onto the live queue, deduplicating the overlap by sequence,
// and interleaves heartbeats.
func (sh *Shipper) ServeFeed(fromSeq uint64, send func(daemon.ReplFrame) bool, stop <-chan struct{}) error {
	sh.mu.Lock()
	j := sh.j
	if j == nil {
		sh.mu.Unlock()
		return errors.New("cluster: shipper has no journal attached")
	}
	f := &feed{ch: make(chan feedFrame, sh.opt.QueueLen), quit: make(chan struct{})}
	sh.feeds[f] = struct{}{}
	sh.mu.Unlock()
	sh.served.Add(1)
	defer func() {
		sh.mu.Lock()
		delete(sh.feeds, f)
		sh.mu.Unlock()
	}()

	sentSeq, err := sh.catchUp(fromSeq, send)
	if err != nil {
		return err
	}

	hb := time.NewTicker(sh.opt.HeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case ff := <-f.ch:
			f.pending.Add(-ff.bytes)
			switch frame := ff.frame; {
			case frame.Record != nil:
				if frame.Record.Seq <= sentSeq {
					continue // already delivered by the disk catch-up
				}
				if !send(frame) {
					return nil
				}
				sentSeq = frame.Record.Seq
				if sh.opt.SpanSink != nil && frame.Record.TraceID != "" && !ff.enq.IsZero() {
					sh.opt.SpanSink.RecordSpan(&telemetry.Span{
						Op:       "repl_ship",
						ID:       fmt.Sprintf("seq %d", frame.Record.Seq),
						TraceID:  frame.Record.TraceID,
						ParentID: frame.Record.SpanID,
						SpanID:   telemetry.NewSpanID(),
						Start:    ff.enq,
						Seconds:  time.Since(ff.enq).Seconds(),
						Outcome:  "shipped",
					})
				}
			case frame.Snapshot != nil:
				// Skip any snapshot at or behind the delivered position:
				// records past it are already on the follower's stream, and
				// a stale snapshot frame would make the follower prune the
				// segments holding them (a checkpoint landing exactly at the
				// follower's resume seq during the registration-to-disk-read
				// window queues such a frame).
				if frame.Snapshot.Seq <= sentSeq {
					continue
				}
				if !send(frame) {
					return nil
				}
				sentSeq = frame.Snapshot.Seq
			}
		case <-hb.C:
			st := j.Stats()
			if !send(daemon.ReplFrame{Heartbeat: &daemon.ReplHeartbeat{
				LastSeq:      st.LastSeq,
				DurableSeq:   st.DurableSeq,
				PendingBytes: f.pending.Load(),
				Epoch:        st.Epoch,
			}}) {
				return nil
			}
		case <-f.quit:
			return errFeedOverflow
		case <-stop:
			return nil
		}
	}
}

// catchUp streams the on-disk prefix past fromSeq: the newest snapshot
// first when the log no longer reaches back to fromSeq, then every
// record after the resulting position. Returns the highest position
// delivered (at least fromSeq), counting a sent snapshot as covering
// every sequence up to its Seq.
func (sh *Shipper) catchUp(fromSeq uint64, send func(daemon.ReplFrame) bool) (sentSeq uint64, err error) {
	recs, err := wal.Records(sh.opt.Dir)
	if err != nil {
		return 0, fmt.Errorf("cluster: catch-up read: %w", err)
	}
	sentSeq = fromSeq
	// A gap between the follower's position and the earliest on-disk
	// record means the prefix was pruned under a snapshot; the snapshot
	// must travel first or the follower could never replay the gap.
	if len(recs) > 0 && recs[0].Seq > fromSeq+1 || len(recs) == 0 {
		snap, _, err := wal.LatestSnapshot(sh.opt.Dir)
		if err != nil {
			return 0, fmt.Errorf("cluster: catch-up snapshot: %w", err)
		}
		if snap != nil && snap.Seq > fromSeq {
			if !send(daemon.ReplFrame{Snapshot: snap}) {
				return 0, errors.New("cluster: feed write failed")
			}
			sentSeq = snap.Seq
		}
	}
	for i := range recs {
		if recs[i].Seq <= sentSeq {
			continue
		}
		if !send(daemon.ReplFrame{Record: &recs[i]}) {
			return 0, errors.New("cluster: feed write failed")
		}
		sentSeq = recs[i].Seq
	}
	return sentSeq, nil
}

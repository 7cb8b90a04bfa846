package daemon

// Replication serving path. The daemon stays transport: the actual
// shipping machinery (journal tap, catch-up from disk, per-follower
// queues) lives in internal/cluster, injected here as a
// ReplicationSource so the packages compose without an import cycle
// (cluster imports daemon, never the reverse).

import (
	"encoding/json"
	"sync"
	"time"
)

// ReplicationSource streams journal records to one follower connection.
// Implemented by cluster.Shipper.
type ReplicationSource interface {
	// ServeFeed streams every frame with sequence > fromSeq through send,
	// in order, until send reports a write failure, stop closes, or the
	// feed fails (e.g. the follower fell behind the shipper's queue — the
	// follower redials and resumes from its local position). send must be
	// called from a single goroutine.
	ServeFeed(fromSeq uint64, send func(ReplFrame) bool, stop <-chan struct{}) error
}

// AckSink receives follower position reports read off a live
// replication stream. A ReplicationSource that also implements AckSink
// (cluster.Shipper does) gets every OpReplAck frame's FromSeq — the
// follower's durable position — which is what renews the leader's
// self-fencing lease.
type AckSink interface {
	FollowerAck(fromSeq uint64)
}

// WithReplicationSource enables the OpReplicate op, serving replication
// streams from src. Without it the op is refused.
func WithReplicationSource(src ReplicationSource) Option {
	return func(o *options) { o.replSource = src }
}

// streamReplication runs a replication stream on the connection's
// serving goroutine, from the acked OpReplicate on. It returns when the
// follower disconnects, the server shuts down, or the feed fails; the
// loop closes the connection either way.
//
// The read side is handed to an ack-reader goroutine: followers send
// OpReplAck position reports upstream on the same connection, and those
// are what renew the leader's self-fencing lease. The reader owns the
// connection's reads from here on (the serving loop never reads again)
// and its death — follower disconnect, malformed frame — stops the feed,
// so a follower that stops acking also stops consuming shipper queue
// space. It outlives streamReplication by up to one read, unblocking
// when the loop closes the connection.
func (s *Server) streamReplication(peer *Peer, fromSeq uint64) {
	// The stream idles legitimately between acks; the per-request idle
	// deadline set by the serving loop must not reap it.
	_ = peer.SetReadDeadline(time.Time{})

	// stop merges "server shutting down" with "ack reader died" for
	// ServeFeed, which takes a single stop channel.
	stop := make(chan struct{})
	var once sync.Once
	closeStop := func() { once.Do(func() { close(stop) }) }
	go func() {
		select {
		case <-s.stop:
			closeStop()
		case <-stop:
		}
	}()

	sink, _ := s.opt.replSource.(AckSink)
	go func() {
		defer closeStop()
		for {
			payload, err := peer.ReadFrame()
			if err != nil {
				return
			}
			if len(payload) == 0 {
				continue
			}
			var ack Request
			if json.Unmarshal(payload, &ack) != nil || ack.Op != OpReplAck {
				// Anything else on a replication stream is a protocol
				// violation; drop the stream so the follower redials clean.
				return
			}
			if sink != nil {
				sink.FollowerAck(ack.FromSeq)
			}
		}
	}()

	send := func(f ReplFrame) bool {
		return peer.Push(Response{OK: true, Push: true, Repl: &f})
	}
	_ = s.opt.replSource.ServeFeed(fromSeq, send, stop)
	closeStop()
}

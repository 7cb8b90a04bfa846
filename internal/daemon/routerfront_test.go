package daemon_test

import (
	"testing"

	"ctxres/internal/cluster"
	"ctxres/internal/daemon"
	"ctxres/internal/telemetry"
)

// The package's own tests cannot import internal/cluster (it imports
// this package); this external test package links both and hands them a
// router to put in front of a daemon.
func init() {
	daemon.RouterFront = func(t *testing.T, shard string, opts ...daemon.Option) (string, func() daemon.ServerStats) {
		t.Helper()
		reg := telemetry.NewRegistry()
		r, err := cluster.ServeRouter("127.0.0.1:0", cluster.RouterOptions{
			Shards:    []string{shard},
			Serve:     opts,
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Shutdown)
		// A router's transport counters are read the way an operator reads
		// them: off the registry behind its /metrics and stats op.
		stats := func() daemon.ServerStats {
			c := reg.Snapshot().Counters
			return daemon.ServerStats{
				RejectedFull:  int64(c["ctxres_conns_rejected_full_total"]),
				BadRequests:   int64(c["ctxres_bad_requests_total"]),
				FramesTooLong: int64(c["ctxres_frames_too_long_total"]),
				IdleClosed:    int64(c["ctxres_idle_closed_total"]),
			}
		}
		return r.Addr().String(), stats
	}
}

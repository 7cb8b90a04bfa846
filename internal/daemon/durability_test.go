package daemon

import (
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

func TestStatsExposeJournalUptimeAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad())
	if err := mw.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", mw, nil,
		WithSnapshotInterval(10*time.Millisecond),
		WithCompactInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	t0 := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 3; i++ {
		c := ctx.NewLocation("peter", t0.Add(time.Duration(i)*time.Second),
			ctx.Point{X: float64(i)},
			ctx.WithID(ctx.ID(string(rune('a'+i)))), ctx.WithSeq(uint64(i)), ctx.WithSource("s"))
		if _, err := client.Submit(c); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the maintenance loop to checkpoint and compact at least once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mwStats, _, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		js, err := client.JournalStats()
		if err != nil {
			t.Fatal(err)
		}
		if js != nil && js.Snapshots > 0 && mwStats.Compactions > 0 {
			if js.Records == 0 {
				t.Fatalf("journal stats = %+v, want appended records", js)
			}
			if js.LastSnapshotAgeSeconds < 0 {
				t.Fatalf("journal stats = %+v, want snapshot age", js)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintenance never ran: mw=%+v journal=%+v", mwStats, js)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srvStats, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if srvStats.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %f, want > 0", srvStats.UptimeSeconds)
	}
	if srvStats.MaintenanceErrors != 0 {
		t.Fatalf("maintenance errors = %d", srvStats.MaintenanceErrors)
	}

	srv.Shutdown()
	if err := mw.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	rep, err := wal.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("journal dir not clean after shutdown: %+v", rep)
	}
}

func TestJournalStatsNilWithoutDurability(t *testing.T) {
	mw := middleware.New(velocityChecker(t), strategy.NewDropBad())
	srv, err := Serve("127.0.0.1:0", mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	client, err := Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	js, err := client.JournalStats()
	if err != nil {
		t.Fatal(err)
	}
	if js != nil {
		t.Fatalf("journal stats = %+v, want nil without a journal", js)
	}
}

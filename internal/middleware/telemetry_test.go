package middleware

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// memSink collects spans in memory.
type memSink struct {
	mu    sync.Mutex
	spans []*telemetry.Span
}

func (s *memSink) RecordSpan(sp *telemetry.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *memSink) byOp(op string) []*telemetry.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*telemetry.Span
	for _, sp := range s.spans {
		if sp.Op == op {
			out = append(out, sp)
		}
	}
	return out
}

// sumByPrefix totals every counter series of one vec family, e.g. all
// ctxres_discards_total{reason=...} series.
func sumByPrefix(snap *telemetry.Snapshot, name string) float64 {
	var sum float64
	for key, v := range snap.Counters {
		if key == name || strings.HasPrefix(key, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestTelemetryCountersMatchStats drives a journaled middleware through a
// deterministic stream and asserts the acceptance criterion that the
// telemetry counters agree exactly with the Stats snapshot (the stats
// op's numbers), that every pipeline stage histogram observed something,
// and that spans carry the stage breakdown.
func TestTelemetryCountersMatchStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &memSink{}
	j, err := wal.Open(wal.Options{
		Dir:      t.TempDir(),
		Fsync:    wal.FsyncAlways,
		Observer: NewWALObserver(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := journaled(t, New(velocityChecker(t, 2, 1.5), strategy.NewDropLatest(),
		WithTelemetry(reg),
		WithSpanSink(sink)), j)
	defer m.CloseJournal()

	x := 0.0
	for i := 0; i < 40; i++ {
		x += 1
		if i%4 == 3 {
			x += 8 // velocity jump: guaranteed violations
		}
		c := loc(fmt.Sprintf("t-%03d", i), uint64(i+1), x)
		if _, err := m.Submit(c); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%2 == 1 {
			_, _ = m.Use(c.ID)
		}
	}
	if _, err := m.UseLatest(ctx.KindLocation, "peter"); err != nil &&
		!errors.Is(err, ErrInconsistent) && !errors.Is(err, ErrNotFound) {
		t.Fatalf("use latest: %v", err)
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	snap := reg.Snapshot()
	for _, tc := range []struct {
		name string
		want int
	}{
		{"ctxres_submits_total", st.Submitted},
		{"ctxres_detected_total", st.Detected},
		{"ctxres_delivered_total", st.Delivered},
		{"ctxres_rejected_total", st.Rejected},
		{"ctxres_expired_total", st.Expired},
		{"ctxres_situations_total", st.Situations},
		{"ctxres_compactions_total", st.Compactions},
		{"ctxres_compact_removed_total", st.CompactRemoved},
		{"ctxres_discards_total", st.Discarded},
	} {
		if got := sumByPrefix(snap, tc.name); got != float64(tc.want) {
			t.Errorf("%s = %v, stats say %d", tc.name, got, tc.want)
		}
	}
	if st.Detected == 0 || st.Discarded == 0 {
		t.Fatalf("stream produced no work: %+v", st)
	}
	if got := sumByPrefix(snap, "ctxres_violations_total"); got != float64(st.Detected) {
		t.Errorf("violations by constraint sum to %v, want %d", got, st.Detected)
	}

	// Every pipeline stage histogram must have observations.
	for _, stage := range []string{"check", "resolve", "journal_append"} {
		key := fmt.Sprintf("ctxres_stage_seconds{stage=%q}", stage)
		if hs, ok := snap.Histograms[key]; !ok || hs.Count == 0 {
			t.Errorf("stage histogram %s empty (%+v)", key, hs)
		}
	}
	for _, op := range []string{"submit", "use", "use_latest", "compact"} {
		key := fmt.Sprintf("ctxres_op_seconds{op=%q}", op)
		if hs, ok := snap.Histograms[key]; !ok || hs.Count == 0 {
			t.Errorf("op histogram %s empty (%+v)", key, hs)
		}
	}
	// The WAL observer fed the journal histograms.
	for _, name := range []string{"ctxres_wal_append_seconds", "ctxres_wal_fsync_seconds", "ctxres_wal_snapshot_seconds"} {
		if hs, ok := snap.Histograms[name]; !ok || hs.Count == 0 {
			t.Errorf("wal histogram %s empty (%+v)", name, hs)
		}
	}
	if got := sumByPrefix(snap, "ctxres_wal_appended_bytes_total"); got == 0 {
		t.Error("no WAL bytes recorded")
	}

	// Spans: one per submit, each with check, resolve, and journal stages
	// (the journal stage is attached by the deferred commit, proving the
	// defer ordering).
	submits := sink.byOp("submit")
	if len(submits) != st.Submitted {
		t.Fatalf("%d submit spans, want %d", len(submits), st.Submitted)
	}
	stages := map[telemetry.Stage]bool{}
	for _, sp := range submits {
		for _, s := range sp.Stages {
			stages[s.Stage] = true
		}
		if sp.Outcome == "" || sp.Seconds <= 0 {
			t.Fatalf("span missing outcome/duration: %+v", sp)
		}
	}
	for _, want := range []telemetry.Stage{telemetry.StageCheck, telemetry.StageResolve, telemetry.StageJournal} {
		if !stages[want] {
			t.Errorf("no submit span carries stage %q", want)
		}
	}

	// The exposition of everything above must be well-formed.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestTelemetryRaceStress hammers an instrumented middleware from many
// goroutines while a scraper renders and validates the exposition — the
// acceptance criterion for the race detector (the Makefile race target
// runs this package).
func TestTelemetryRaceStress(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &memSink{}
	m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad(),
		WithTelemetry(reg),
		WithSpanSink(sink))

	const goroutines = 8
	const perG = 25
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			subject := fmt.Sprintf("walker-%d", g)
			x := 0.0
			for i := 0; i < perG; i++ {
				x += 1
				if i%5 == 4 {
					x += 10
				}
				at := t0.Add(time.Duration(i) * time.Second)
				c := ctx.NewLocation(subject, at, ctx.Point{X: x},
					ctx.WithID(ctx.ID(fmt.Sprintf("r%d-%03d", g, i))),
					ctx.WithSeq(uint64(i+1)), ctx.WithSource("stress"))
				if _, err := m.Submit(c); err != nil {
					t.Errorf("goroutine %d submit %d: %v", g, i, err)
					return
				}
				if i%3 == 0 {
					_, _ = m.Use(c.ID)
				}
			}
		}(g)
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if err := telemetry.ValidateExposition(buf.Bytes()); err != nil {
				t.Errorf("scrape under load invalid: %v", err)
				return
			}
			_ = reg.Snapshot()
			_ = m.SigmaSize()
			_ = m.JournalErr()
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()

	st := m.Stats()
	snap := reg.Snapshot()
	if got := sumByPrefix(snap, "ctxres_submits_total"); got != float64(st.Submitted) {
		t.Fatalf("submits counter %v, stats %d", got, st.Submitted)
	}
	if got := sumByPrefix(snap, "ctxres_delivered_total"); got != float64(st.Delivered) {
		t.Fatalf("delivered counter %v, stats %d", got, st.Delivered)
	}
	if len(sink.byOp("submit")) != st.Submitted {
		t.Fatalf("%d submit spans, want %d", len(sink.byOp("submit")), st.Submitted)
	}
}

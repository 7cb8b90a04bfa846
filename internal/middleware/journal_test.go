package middleware

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

// durableFingerprint serializes the full durable state — pool, clock,
// strategy buffer, counters — exactly as a snapshot would, so two
// middlewares can be compared byte for byte.
func durableFingerprint(tb testing.TB, m *Middleware) string {
	tb.Helper()
	fp, err := m.Fingerprint()
	if err != nil {
		tb.Fatal(err)
	}
	return fp
}

func openTestJournal(tb testing.TB, dir string) *wal.Journal {
	tb.Helper()
	j, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	return j
}

// journaled attaches j to m the way production does, after construction.
func journaled(tb testing.TB, m *Middleware, j *wal.Journal) *Middleware {
	tb.Helper()
	if err := m.AttachJournal(j); err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestJournalRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()),
		openTestJournal(t, dir))
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []ctx.ID{"d3", "d1", "d5"} {
		_, _ = m.Use(id) // rejections are part of the journaled history
	}
	m.AdvanceTo(t0.Add(time.Hour))
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	want := durableFingerprint(t, m)
	wantStats := m.Stats()
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	m2, rep, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := durableFingerprint(t, m2); got != want {
		t.Fatalf("recovered state diverges:\n got %s\nwant %s", got, want)
	}
	if got := m2.Stats(); got != wantStats {
		t.Fatalf("recovered stats = %+v, want %+v", got, wantStats)
	}
	if rep.Commands == 0 {
		t.Fatalf("report = %+v, want replayed commands", rep)
	}
	// CloseJournal appended a final stats annotation; replay verified it.
	if rep.StatsChecked == 0 {
		t.Fatalf("report = %+v, want stats cross-check", rep)
	}

	// The recovered instance keeps journaling.
	j2 := openTestJournal(t, dir)
	if err := m2.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit(loc("post", 100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()),
		openTestJournal(t, dir))
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Use("d1"); err != nil {
		t.Fatal(err)
	}
	want := durableFingerprint(t, m)
	// Abandon without closing: a kill, not a shutdown. The bytes are in the
	// files; only the final stats record is missing.

	m2, rep, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotSeq == 0 || rep.SnapshotPath == "" {
		t.Fatalf("report = %+v, want recovery from a snapshot", rep)
	}
	// Only the post-checkpoint suffix replays: the stats annotation plus
	// the use command (and its derived annotations).
	if rep.Commands != 1 {
		t.Fatalf("replayed %d commands, want 1 (suffix after snapshot)", rep.Commands)
	}
	if got := durableFingerprint(t, m2); got != want {
		t.Fatalf("recovered state diverges:\n got %s\nwant %s", got, want)
	}
}

func TestRecoverEmptyDirIsFresh(t *testing.T) {
	m, rep, err := Recover(t.TempDir(), func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commands != 0 || rep.SnapshotPath != "" {
		t.Fatalf("report = %+v, want empty", rep)
	}
	if m.Stats() != (Stats{}) {
		t.Fatalf("stats = %+v, want zero", m.Stats())
	}
}

func TestRecoverStrategyMismatchFails(t *testing.T) {
	dir := t.TempDir()
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()),
		openTestJournal(t, dir))
	if _, err := m.Submit(loc("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	_, _, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest())
	})
	if err == nil {
		t.Fatal("recovery under a different strategy accepted")
	}
}

// crashFile fails once a shared byte budget runs out, tearing the write
// mid-frame like a power cut would.
type crashFile struct {
	f      *os.File
	budget *int64
}

var errCrash = errors.New("injected crash")

func (b *crashFile) Write(p []byte) (int, error) {
	if *b.budget <= 0 {
		return 0, errCrash
	}
	if int64(len(p)) > *b.budget {
		n, _ := b.f.Write(p[:*b.budget])
		*b.budget = 0
		return n, errCrash
	}
	*b.budget -= int64(len(p))
	return b.f.Write(p)
}

func (b *crashFile) Sync() error  { return b.f.Sync() }
func (b *crashFile) Close() error { return b.f.Close() }

func crashOpenFile(budget *int64) func(string) (wal.File, error) {
	return func(name string) (wal.File, error) {
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		return &crashFile{f: f, budget: budget}, nil
	}
}

// TestRejectedUseReportsJournalFailure pins the fail-stop contract for an
// operation that also fails on its own: a rejected use still discards the
// context, so when the journal dies under it the caller must see the
// journal failure beside the rejection, or it would count a discard that
// recovery cannot reproduce.
func TestRejectedUseReportsJournalFailure(t *testing.T) {
	budget := int64(1 << 20)
	j, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNever,
		OpenFile: crashOpenFile(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	m := journaled(t, New(velocityChecker(t, 2, 1.5), strategy.NewDropBad()), j)
	for _, c := range scenarioA() {
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Use("d1"); err != nil { // d3 becomes bad
		t.Fatal(err)
	}
	budget = 0 // the disk dies before d3's rejection reaches it
	_, err = m.Use("d3")
	if !errors.Is(err, ErrInconsistent) || !errors.Is(err, errCrash) {
		t.Fatalf("Use(d3) err = %v, want the rejection and the journal failure", err)
	}
}

func TestJournalFailureFailsStop(t *testing.T) {
	budget := int64(600)
	j, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNever,
		OpenFile: crashOpenFile(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()), j)
	var failed error
	for i := 1; i <= 100; i++ {
		if _, err := m.Submit(loc(fmt.Sprintf("c%d", i), uint64(i), 0)); err != nil {
			failed = err
			break
		}
	}
	if !errors.Is(failed, errCrash) {
		t.Fatalf("submit loop error = %v, want injected crash", failed)
	}
	// Fail-stop: every later state-changing operation is refused.
	if _, err := m.Submit(loc("late", 200, 0)); !errors.Is(err, errCrash) {
		t.Fatalf("submit after failure = %v, want sticky crash error", err)
	}
	if _, err := m.Use("c1"); !errors.Is(err, errCrash) {
		t.Fatalf("use after failure = %v, want sticky crash error", err)
	}
	if _, err := m.Compact(); !errors.Is(err, errCrash) {
		t.Fatalf("compact after failure = %v, want sticky crash error", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, errCrash) {
		t.Fatalf("checkpoint after failure = %v, want sticky crash error", err)
	}
	_ = m.CloseJournal()
	// Detached, the middleware serves again (degraded, not durable).
	if _, err := m.Submit(loc("late", 200, 0)); err != nil {
		t.Fatalf("submit after detach: %v", err)
	}
}

// walOp is one deterministic workload step, stored as data so the same
// workload can be re-applied to fresh middleware instances.
type walOp struct {
	kind string // submit, use, advance, compact, checkpoint
	id   string
	seq  uint64
	x    float64
	ttl  time.Duration
	at   time.Time
}

func genWalOps(seed int64) []walOp {
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(40)
	ops := make([]walOp, 0, n)
	var submitted []string
	seq := uint64(0)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(submitted) == 0:
			seq++
			id := fmt.Sprintf("w%d", seq)
			var ttl time.Duration
			if rng.Float64() < 0.3 {
				ttl = time.Duration(3+rng.Intn(15)) * time.Second
			}
			ops = append(ops, walOp{kind: "submit", id: id, seq: seq,
				x: float64(rng.Intn(12)), ttl: ttl})
			submitted = append(submitted, id)
		case r < 0.85:
			ops = append(ops, walOp{kind: "use", id: submitted[rng.Intn(len(submitted))]})
		case r < 0.92:
			seq += uint64(1 + rng.Intn(5))
			ops = append(ops, walOp{kind: "advance", at: t0.Add(time.Duration(seq) * time.Second)})
		case r < 0.97:
			ops = append(ops, walOp{kind: "compact"})
		default:
			ops = append(ops, walOp{kind: "checkpoint"})
		}
	}
	return ops
}

// applyWalOp runs one step. Application-level rejections (inconsistent on
// use, expired, and so on) are deterministic parts of the history, not
// failures; only journal trouble comes back as an error.
func applyWalOp(m *Middleware, o walOp) error {
	var err error
	switch o.kind {
	case "submit":
		opts := []ctx.Option{ctx.WithID(ctx.ID(o.id)), ctx.WithSeq(o.seq), ctx.WithSource("s")}
		if o.ttl > 0 {
			opts = append(opts, ctx.WithTTL(o.ttl))
		}
		c := ctx.NewLocation("peter", t0.Add(time.Duration(o.seq)*time.Second),
			ctx.Point{X: o.x}, opts...)
		_, err = m.Submit(c)
	case "use":
		_, err = m.Use(ctx.ID(o.id))
	case "advance":
		m.AdvanceTo(o.at)
		m.mu.Lock()
		err = m.journalErr
		m.mu.Unlock()
	case "compact":
		_, err = m.Compact()
	case "checkpoint":
		if m.journal == nil {
			return nil
		}
		err = m.Checkpoint()
	}
	if err != nil && errors.Is(err, errCrash) {
		return err
	}
	return nil
}

// TestCrashRecoveryProperty is the crash-recovery property test: for each
// seed, a workload runs against a journal that dies at a random byte
// offset; recovery from the surviving files must land on a state byte-
// identical to an uninterrupted run of some acknowledged prefix, and the
// directory must verify clean after the torn tail is truncated.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genWalOps(seed)
			// Every middleware carries a situation engine and records the
			// transition events it emits, so recovery can be checked to
			// regenerate the exact activation sequence, not just the final
			// state.
			build := func(rec *[]string) func() *Middleware {
				return func() *Middleware {
					return New(velocityChecker(t, 2, 1.5), strategy.NewDropBad(),
						WithSituations(presenceEngine()),
						WithHooks(on(EventSituation, func(e Event) {
							*rec = append(*rec, e.Situation.String())
						})))
				}
			}

			// Reference run, fault-free: fingerprints[i] is the durable
			// state after i ops, evCounts[i] the events emitted by then.
			refDir := t.TempDir()
			var refEvents []string
			ref := build(&refEvents)()
			if err := ref.AttachJournal(openTestJournal(t, refDir)); err != nil {
				t.Fatal(err)
			}
			fingerprints := make([]string, 0, len(ops)+1)
			fingerprints = append(fingerprints, durableFingerprint(t, ref))
			evCounts := make([]int, 0, len(ops)+1)
			evCounts = append(evCounts, 0)
			for _, o := range ops {
				if err := applyWalOp(ref, o); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				fingerprints = append(fingerprints, durableFingerprint(t, ref))
				evCounts = append(evCounts, len(refEvents))
			}
			refBytes := ref.JournalStats().Bytes
			if err := ref.CloseJournal(); err != nil {
				t.Fatal(err)
			}

			// Crashed run: the log dies somewhere inside the byte stream the
			// reference produced (sometimes never, exercising clean ends).
			rng := rand.New(rand.NewSource(seed * 7919))
			budget := 16 + rng.Int63n(refBytes*2)
			crashDir := t.TempDir()
			j, err := wal.Open(wal.Options{Dir: crashDir, Fsync: wal.FsyncNever,
				SegmentBytes: 1 << 12, OpenFile: crashOpenFile(&budget)})
			if err != nil {
				t.Fatal(err)
			}
			var crashEvents []string
			crashed := build(&crashEvents)()
			if err := crashed.AttachJournal(j); err != nil {
				t.Fatal(err)
			}
			applied := 0
			for _, o := range ops {
				if err := applyWalOp(crashed, o); err != nil {
					break // crashed mid-op
				}
				applied++
			}
			// Abandon without closing, like a real crash.

			var replayEvents []string
			m2, _, err := Recover(crashDir, build(&replayEvents))
			if err != nil {
				t.Fatalf("recover after %d/%d ops: %v", applied, len(ops), err)
			}
			got := durableFingerprint(t, m2)
			// The replayed situation events must be a byte-identical
			// contiguous suffix of the reference run's event log as of the
			// recovered prefix: recovery regenerates exactly the
			// post-snapshot transitions, never spurious ones.
			eventsAlign := func(idx int) bool {
				if idx >= len(evCounts) {
					return false
				}
				cnt, n := evCounts[idx], len(replayEvents)
				if n > cnt {
					return false
				}
				for i := 0; i < n; i++ {
					if replayEvents[i] != refEvents[cnt-n+i] {
						return false
					}
				}
				return true
			}
			// The op that observed the failure may still be durable: its
			// command record can precede the torn annotation. Both states
			// are honest recoveries.
			ok := got == fingerprints[applied] && eventsAlign(applied)
			if !ok && applied+1 < len(fingerprints) {
				ok = got == fingerprints[applied+1] && eventsAlign(applied+1)
			}
			if !ok {
				t.Fatalf("recovered state after %d/%d ops matches neither adjacent prefix (replayed %d events):\n%s",
					applied, len(ops), len(replayEvents), got)
			}

			// Acceptance: after recovery truncated the torn tail, the
			// directory verifies with zero corrupt records.
			rep, err := wal.Verify(crashDir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-recovery verify not clean: %+v", rep)
			}

			// And the recovered instance can resume journaling in place.
			j2 := openTestJournal(t, crashDir)
			if err := m2.AttachJournal(j2); err != nil {
				t.Fatal(err)
			}
			if _, err := m2.Submit(loc(fmt.Sprintf("resume%d", seed), 10_000, 0)); err != nil {
				t.Fatalf("resume after recovery: %v", err)
			}
			if err := m2.CloseJournal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

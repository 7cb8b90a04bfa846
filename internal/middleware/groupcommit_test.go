package middleware

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

// TestCrashRecoveryPropertyGroupCommit re-runs the crash-recovery
// property under group commit: the workload acknowledges each operation
// only after WaitDurable, the log dies at a random byte offset, and the
// recovered fingerprint must still be byte-identical to an uninterrupted
// run of some acknowledged prefix — the PR 3 durability contract is
// preserved verbatim by the coalesced-fsync path.
func TestCrashRecoveryPropertyGroupCommit(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := genWalOps(seed)
			build := func() *Middleware {
				return New(velocityChecker(t, 2, 1.5), strategy.NewDropBad())
			}

			refDir := t.TempDir()
			ref := build()
			if err := ref.AttachJournal(openTestJournal(t, refDir)); err != nil {
				t.Fatal(err)
			}
			fingerprints := make([]string, 0, len(ops)+1)
			fingerprints = append(fingerprints, durableFingerprint(t, ref))
			for _, o := range ops {
				if err := applyWalOp(ref, o); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				fingerprints = append(fingerprints, durableFingerprint(t, ref))
			}
			refBytes := ref.JournalStats().Bytes
			if err := ref.CloseJournal(); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(seed * 104729))
			budget := 16 + rng.Int63n(refBytes*2)
			crashDir := t.TempDir()
			j, err := wal.Open(wal.Options{Dir: crashDir, GroupCommit: true,
				SegmentBytes: 1 << 12, OpenFile: crashOpenFile(&budget)})
			if err != nil {
				t.Fatal(err)
			}
			crashed := build()
			if err := crashed.AttachJournal(j); err != nil {
				t.Fatal(err)
			}
			applied := 0
			for _, o := range ops {
				if err := applyWalOp(crashed, o); err != nil {
					break
				}
				applied++
			}
			// Abandon without closing, like a real crash.

			m2, _, err := Recover(crashDir, build)
			if err != nil {
				t.Fatalf("recover after %d/%d ops: %v", applied, len(ops), err)
			}
			got := durableFingerprint(t, m2)
			ok := got == fingerprints[applied]
			if !ok && applied+1 < len(fingerprints) {
				ok = got == fingerprints[applied+1]
			}
			if !ok {
				t.Fatalf("recovered state after %d/%d ops matches neither adjacent prefix:\n%s",
					applied, len(ops), got)
			}

			rep, err := wal.Verify(crashDir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-recovery verify not clean: %+v", rep)
			}

			// The recovered instance resumes journaling in group-commit mode.
			j2, err := wal.Open(wal.Options{Dir: crashDir, GroupCommit: true})
			if err != nil {
				t.Fatal(err)
			}
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

// cacheFile models the page cache under a crash: writes land in an
// in-memory buffer, Sync flushes the buffer to the real file and fsyncs
// it, and a crash (crashFlush) persists only a scripted prefix of the
// unsynced tail — so data a group commit never acknowledged genuinely
// disappears, torn mid-frame when the prefix says so. A write budget
// injects the crash point. It is concurrency-safe because group-commit
// leaders Sync outside the journal lock, concurrently with appends.
type cacheFile struct {
	mu     sync.Mutex
	f      *os.File
	buf    []byte
	budget *int64
	dead   bool
}

func (b *cacheFile) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead || *b.budget <= 0 {
		b.dead = true
		return 0, errCrash
	}
	n := int64(len(p))
	if n > *b.budget {
		allowed := int(*b.budget)
		b.buf = append(b.buf, p[:allowed]...)
		*b.budget = 0
		b.dead = true
		return allowed, errCrash
	}
	*b.budget -= n
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *cacheFile) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return errCrash
	}
	if len(b.buf) > 0 {
		if _, err := b.f.Write(b.buf); err != nil {
			return err
		}
		b.buf = b.buf[:0]
	}
	return b.f.Sync()
}

func (b *cacheFile) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.Close()
}

// crashFlush simulates the kernel having written part of the cached tail
// before the crash: frac of the unsynced buffer reaches the file, the
// rest is lost.
func (b *cacheFile) crashFlush(frac float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := int(float64(len(b.buf)) * frac)
	if n > 0 {
		_, _ = b.f.Write(b.buf[:n])
	}
	b.buf = nil
	b.dead = true
}

// TestGroupCommitOnlyAckedSurvive is the concurrent half of the group-
// commit crash property: many sources submit in parallel against a
// coalescing journal whose cache dies mid-batch at a random byte budget.
// After recovery, every fsync-acknowledged submission must be present,
// everything recovered must have been submitted (no invented state), and
// the directory must verify clean after torn-tail truncation.
func TestGroupCommitOnlyAckedSurvive(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 6271))
			budget := 512 + rng.Int63n(64<<10)
			frac := rng.Float64()
			dir := t.TempDir()

			var files []*cacheFile
			var filesMu sync.Mutex
			j, err := wal.Open(wal.Options{
				Dir:         dir,
				GroupCommit: true,
				CommitDelay: 200 * time.Microsecond,
				CommitBatch: 8,
				OpenFile: func(name string) (wal.File, error) {
					f, err := os.Create(name)
					if err != nil {
						return nil, err
					}
					cf := &cacheFile{f: f, budget: &budget}
					filesMu.Lock()
					files = append(files, cf)
					filesMu.Unlock()
					return cf, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Middleware {
				return New(velocityChecker(t, 2, 1.5), strategy.NewDropBad())
			}
			m := build()
			if err := m.AttachJournal(j); err != nil {
				t.Fatal(err)
			}

			const workers, perWorker = 6, 40
			acked := make([][]ctx.ID, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					subject := fmt.Sprintf("src%d", w)
					for i := 0; i < perWorker; i++ {
						id := ctx.ID(fmt.Sprintf("g%d-%d", w, i))
						c := ctx.NewLocation(subject, t0.Add(time.Duration(i)*time.Second),
							ctx.Point{X: float64(i)},
							ctx.WithID(id), ctx.WithSeq(uint64(i+1)),
							ctx.WithSource(subject))
						if _, err := m.Submit(c); err != nil {
							return // journal died; nothing later is acknowledged
						}
						acked[w] = append(acked[w], id)
					}
				}(w)
			}
			wg.Wait()
			// Crash: part of the unsynced cache reaches the disk, torn
			// wherever the fraction lands.
			filesMu.Lock()
			for _, cf := range files {
				cf.crashFlush(frac)
			}
			filesMu.Unlock()

			m2, _, err := Recover(dir, build)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			pool := m2.Pool()
			survivors := 0
			for w := range acked {
				for _, id := range acked[w] {
					if _, ok := pool.Get(id); !ok {
						t.Fatalf("acknowledged submission %s lost by recovery", id)
					}
					survivors++
				}
			}
			// No invented state: everything recovered was submitted by a
			// worker with its deterministic ID scheme.
			snap := pool.Snapshot()
			for _, e := range snap.Entries {
				id := e.Context.ID
				var w, i int
				if _, err := fmt.Sscanf(string(id), "g%d-%d", &w, &i); err != nil {
					t.Fatalf("recovered unknown context %s", id)
				}
				if w < 0 || w >= workers || i < 0 || i >= perWorker {
					t.Fatalf("recovered out-of-range context %s", id)
				}
			}

			rep, err := wal.Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("post-recovery verify not clean: %+v", rep)
			}
			t.Logf("seed %d: %d acked survived, %d recovered total, budget=%d frac=%.2f",
				seed, survivors, len(snap.Entries), budget, frac)
		})
	}
}

// TestGroupCommitDurabilityFailureFailsStop pins the middleware-level
// contract: when the shared fsync fails, the submission that waited on it
// reports the failure and the middleware fail-stops, exactly like an
// append failure under the inline-fsync path.
func TestGroupCommitDurabilityFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	var failNext bool
	var mu sync.Mutex
	j, err := wal.Open(wal.Options{
		Dir:         dir,
		GroupCommit: true,
		OpenFile: func(name string) (wal.File, error) {
			f, err := os.Create(name)
			if err != nil {
				return nil, err
			}
			return &failableSyncFile{f: f, failNext: &failNext, mu: &mu}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()), j)
	if _, err := m.Submit(loc("ok", 1, 0)); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	mu.Lock()
	failNext = true
	mu.Unlock()
	if _, err := m.Submit(loc("doomed", 2, 0)); err == nil {
		t.Fatal("submit acknowledged over a failed group fsync")
	}
	// Sticky: later operations are refused too.
	if _, err := m.Submit(loc("late", 3, 0)); err == nil {
		t.Fatal("submit succeeded after durability failure")
	}
}

type failableSyncFile struct {
	f        *os.File
	mu       *sync.Mutex
	failNext *bool
}

func (s *failableSyncFile) Write(p []byte) (int, error) { return s.f.Write(p) }

func (s *failableSyncFile) Sync() error {
	s.mu.Lock()
	fail := *s.failNext
	s.mu.Unlock()
	if fail {
		return errCrash
	}
	return s.f.Sync()
}

func (s *failableSyncFile) Close() error { return s.f.Close() }

// TestSubmitBatchSharesCommit pins the batch API: per-item results match
// item-by-item submission, and the whole batch rides a bounded number of
// fsyncs rather than one per record.
func TestSubmitBatchSharesCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad()), j)

	cs := make([]*ctx.Context, 0, 20)
	for i := 0; i < 20; i++ {
		cs = append(cs, loc(fmt.Sprintf("b%d", i), uint64(i+1), float64(i%3)))
	}
	// A duplicate mid-batch must fail alone, not the batch.
	cs[7] = loc("b3", 4, 0)

	results, err := m.SubmitBatch(cs, SubmitOptions{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != len(cs) {
		t.Fatalf("results = %d, want %d", len(results), len(cs))
	}
	for i, r := range results {
		if i == 7 {
			if r.Err == nil {
				t.Fatal("duplicate item succeeded")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	st := m.JournalStats()
	if st.Records < 19 {
		t.Fatalf("journaled %d records, want >= 19", st.Records)
	}
	if st.Fsyncs >= st.Records {
		t.Fatalf("fsyncs = %d for %d records: batch did not share commits",
			st.Fsyncs, st.Records)
	}

	// Recovery sees exactly the batch's accepted items.
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	m2, _, err := Recover(dir, func() *Middleware {
		return New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := durableFingerprint(t, m2), durableFingerprint(t, m); got != want {
		t.Fatalf("recovered batch state diverges:\n got %s\nwant %s", got, want)
	}
}

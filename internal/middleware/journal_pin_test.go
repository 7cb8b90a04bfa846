package middleware

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
)

// scanPoolJournalDigest is the SHA-256 of every journal file the seeded
// streams below produced at the last commit whose pool found expired
// entries by scanning in insertion order, with the two parallel-checker
// counters (always zero here, since deleted from Stats) taken out of the
// snapshot records' stats. The pool's indexes must not change a byte:
// the order of a sweep's RecordExpire records, and of the discards a
// strategy answers them with, is part of the journal.
const scanPoolJournalDigest = "05d34c048c67be5c296eb6ce796171eb3c4585bd6d62888f00ef745bbef919bf"

func TestJournalBytesMatchScanPool(t *testing.T) {
	digest := sha256.New()
	for seed := int64(1); seed <= 24; seed++ {
		dir := t.TempDir()
		m := journaled(t, New(velocityChecker(t, 2, 1.5), strategy.NewDropBad(),
			WithSituations(presenceEngine())), openTestJournal(t, dir))
		for i, o := range genWalOps(seed) {
			if err := applyWalOp(m, o); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				_, _ = m.UseLatest(ctx.KindLocation, "peter") // rejections are history too
			}
		}
		// One sweep expires everything with a TTL, deadlines in no
		// particular relation to insertion order.
		m.AdvanceTo(t0.Add(24 * time.Hour))
		if err := m.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("journal files: %v %v", files, err)
		}
		sort.Strings(files)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			digest.Write([]byte(filepath.Base(f)))
			digest.Write(data)
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != scanPoolJournalDigest {
		t.Fatalf("journal bytes changed: digest %s, pinned %s", got, scanPoolJournalDigest)
	}
}

package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"ctxres/internal/ctx"
	"ctxres/internal/pool"
)

var testClock = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func testCtx(id string, seq uint64) *ctx.Context {
	return ctx.NewLocation("peter", testClock.Add(time.Duration(seq)*time.Second),
		ctx.Point{X: float64(seq)},
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("s"))
}

func submitRecord(id string, seq uint64) Record {
	return Record{Type: RecordSubmit, Context: testCtx(id, seq)}
}

func mustAppend(t *testing.T, j *Journal, r Record) uint64 {
	t.Helper()
	seq, err := j.Append(r)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustAppend(t, j, submitRecord("a", 1)); got != 1 {
		t.Fatalf("first seq = %d, want 1", got)
	}
	mustAppend(t, j, Record{Type: RecordUse, ID: "a"})
	at := testClock.Add(time.Minute)
	mustAppend(t, j, Record{Type: RecordAdvance, Time: &at})
	mustAppend(t, j, Record{Type: RecordDiscard, ID: "a", Reason: "on-use"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || res.TornBytes != 0 {
		t.Fatalf("unexpected snapshot/torn state: %+v", res)
	}
	if len(res.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(res.Records))
	}
	wantTypes := []RecordType{RecordSubmit, RecordUse, RecordAdvance, RecordDiscard}
	for i, rec := range res.Records {
		if rec.Seq != uint64(i+1) || rec.Type != wantTypes[i] {
			t.Fatalf("record %d = seq %d type %s, want seq %d type %s",
				i, rec.Seq, rec.Type, i+1, wantTypes[i])
		}
	}
	if got := res.Records[0].Context.ID; got != "a" {
		t.Fatalf("submit context ID = %s", got)
	}
	if !res.Records[2].Time.Equal(at) {
		t.Fatalf("advance time = %v, want %v", res.Records[2].Time, at)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRecord("a", 1))
	mustAppend(t, j, submitRecord("b", 2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after reopen = %d, want 2", got)
	}
	if got := mustAppend(t, j2, submitRecord("c", 3)); got != 3 {
		t.Fatalf("seq after reopen = %d, want 3", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(res.Records))
	}
}

func TestTornTailTruncatedAndVerifyClean(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRecord("a", 1))
	mustAppend(t, j, submitRecord("b", 2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1].path
	// Simulate a crash mid-append: half a frame header at the end.
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 1 || rep.CorruptFiles != 0 {
		t.Fatalf("pre-recovery verify = %+v, want one torn tail", rep)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornBytes != 3 {
		t.Fatalf("TornBytes = %d, want 3", res.TornBytes)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want 2 (torn tail dropped)", len(res.Records))
	}

	// Load physically truncated the tail: the directory now verifies clean.
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-recovery verify not clean: %+v", rep)
	}
}

func TestCorruptionInMiddleIsHardError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRecord("a", 1))
	mustAppend(t, j, submitRecord("b", 2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segs[0].path
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: CRC mismatch with valid data
	// following is corruption, not a torn tail.
	buf[magicLen+frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a corrupt middle record")
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFiles != 1 {
		t.Fatalf("verify = %+v, want one corrupt file", rep)
	}
}

func TestSnapshotRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 256, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		mustAppend(t, j, submitRecord(fmt.Sprintf("c%d", i), uint64(i)))
	}
	p := pool.New()
	snap := Snapshot{Seq: j.LastSeq(), Clock: testClock, Strategy: "D-BAD", Pool: p.Snapshot()}
	if err := j.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// All pre-snapshot segments are gone; only the fresh active one remains.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].seq != 21 {
		t.Fatalf("segments after snapshot = %+v, want one starting at 21", segs)
	}
	mustAppend(t, j, submitRecord("after", 21))

	// A second snapshot with KeepSnapshots=1 prunes the first.
	snap2 := Snapshot{Seq: j.LastSeq(), Clock: testClock, Strategy: "D-BAD", Pool: p.Snapshot()}
	if err := j.WriteSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].seq != 21 {
		t.Fatalf("snapshots = %+v, want only seq 21", snaps)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil || res.Snapshot.Seq != 21 {
		t.Fatalf("loaded snapshot = %+v, want seq 21", res.Snapshot)
	}
	if len(res.Records) != 0 {
		t.Fatalf("records after snapshot = %d, want 0", len(res.Records))
	}
	stats := j.Stats()
	if stats.Snapshots != 2 || stats.LastSnapshotSeq != 21 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.LastSnapshotAgeSeconds < 0 {
		t.Fatalf("snapshot age = %f, want >= 0", stats.LastSnapshotAgeSeconds)
	}
}

func TestSnapshotSeqMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, submitRecord("a", 1))
	err = j.WriteSnapshot(Snapshot{Seq: 7, Clock: testClock, Pool: pool.New().Snapshot()})
	if err == nil || !strings.Contains(err.Error(), "journal at") {
		t.Fatalf("stale snapshot accepted: %v", err)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever, KeepSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New()
	mustAppend(t, j, submitRecord("a", 1))
	if err := j.WriteSnapshot(Snapshot{Seq: 1, Clock: testClock, Pool: p.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, submitRecord("b", 2))
	if err := j.WriteSnapshot(Snapshot{Seq: 2, Clock: testClock, Pool: p.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot.
	snaps, _ := listSnapshots(dir)
	newest := snaps[len(snaps)-1].path
	if err := os.WriteFile(newest, []byte("CTXSNP01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil || res.Snapshot.Seq != 1 {
		t.Fatalf("snapshot = %+v, want fallback to seq 1", res.Snapshot)
	}
	if len(res.SkippedSnapshots) != 1 {
		t.Fatalf("skipped = %v, want 1 entry", res.SkippedSnapshots)
	}
}

// budgetFile fails after writing a set number of bytes, faultconn-style,
// simulating a crash at an arbitrary byte offset.
type budgetFile struct {
	f      *os.File
	budget *int64
}

var errInjected = errors.New("injected write failure")

func (b *budgetFile) Write(p []byte) (int, error) {
	if *b.budget <= 0 {
		return 0, errInjected
	}
	if int64(len(p)) > *b.budget {
		n, _ := b.f.Write(p[:*b.budget])
		*b.budget = 0
		return n, errInjected
	}
	*b.budget -= int64(len(p))
	return b.f.Write(p)
}

func (b *budgetFile) Sync() error  { return b.f.Sync() }
func (b *budgetFile) Close() error { return b.f.Close() }

func budgetOpenFile(budget *int64) func(string) (File, error) {
	return func(name string) (File, error) {
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		return &budgetFile{f: f, budget: budget}, nil
	}
}

func TestWriteFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	budget := int64(200)
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever, OpenFile: budgetOpenFile(&budget)})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	appended := 0
	for i := 1; i <= 100; i++ {
		if _, err := j.Append(submitRecord(fmt.Sprintf("c%d", i), uint64(i))); err != nil {
			firstErr = err
			break
		}
		appended++
	}
	if firstErr == nil {
		t.Fatal("budget never exhausted")
	}
	if !errors.Is(firstErr, errInjected) {
		t.Fatalf("unexpected failure: %v", firstErr)
	}
	// Sticky: later appends fail with the same error without writing.
	if _, err := j.Append(submitRecord("x", 999)); !errors.Is(err, errInjected) {
		t.Fatalf("append after failure = %v, want sticky injected error", err)
	}
	if !errors.Is(j.Err(), errInjected) {
		t.Fatalf("Err() = %v", j.Err())
	}
	_ = j.Close()

	// The acknowledged prefix (and possibly a torn record) recovers.
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < appended {
		t.Fatalf("recovered %d records, want >= %d acknowledged", len(res.Records), appended)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(submitRecord("a", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		mustAppend(t, j, submitRecord(fmt.Sprintf("c%d", i), uint64(i)))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("segments = %d, want rotation to have split the log", len(segs))
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("no rotations counted")
	}
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records across segments = %d, want 10", len(res.Records))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncIntervalPolicy, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if got := FsyncPolicy(42).String(); got != "invalid" {
		t.Fatalf("String(42) = %q", got)
	}
}

func TestBadMagicIsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFiles != 1 {
		t.Fatalf("verify = %+v, want corrupt file", rep)
	}
}

func TestLoadEmptyDirIsEmpty(t *testing.T) {
	res, err := Load(filepath.Join(t.TempDir(), "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || len(res.Records) != 0 {
		t.Fatalf("res = %+v, want empty", res)
	}
}

// FuzzRecordRoundTrip checks that any record the journal encodes decodes
// back identically.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("submit", "a", int64(0), `{"submitted":1}`)
	f.Add("use", "b", int64(60), ``)
	f.Add("advance", "", int64(3600), ``)
	f.Add("stats", "", int64(0), `{"delivered":2}`)
	f.Fuzz(func(t *testing.T, typ, id string, offset int64, stats string) {
		r := Record{Seq: 7, Type: RecordType(typ), ID: ctx.ID(id)}
		switch r.Type {
		case RecordSubmit:
			r.Context = testCtx(id, 1)
		case RecordAdvance:
			at := testClock.Add(time.Duration(offset) * time.Second)
			r.Time = &at
		case RecordStats:
			if json.Valid([]byte(stats)) {
				r.Stats = json.RawMessage(stats)
			}
		}
		payload, err := r.encode()
		if wantErr := !r.Type.Valid() || !utf8.ValidString(id); (err != nil) != wantErr {
			t.Fatalf("encode(type %q, id %q) = %v, want an error: %v", typ, id, err, wantErr)
		}
		if err != nil {
			return
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode of freshly encoded record failed: %v", err)
		}
		if got.Seq != r.Seq || got.Type != r.Type || got.ID != r.ID {
			t.Fatalf("round trip changed record: %+v -> %+v", r, got)
		}
	})
}

// FuzzSegmentScan feeds arbitrary bytes through the segment reader: it
// must classify them as records, a torn tail, or corruption — never panic
// and never misreport a valid prefix.
func FuzzSegmentScan(f *testing.F) {
	valid := []byte(segmentMagic)
	payload, _ := submitRecord("a", 1).encode()
	valid, _ = appendFrame(valid, payload)
	f.Add(valid)
	f.Add([]byte(segmentMagic))
	f.Add([]byte("garbage"))
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		scan, err := readSegment(path)
		if err != nil {
			return // corruption is a legal classification
		}
		if scan.torn && scan.validLen > int64(len(data)) {
			t.Fatalf("validLen %d beyond file size %d", scan.validLen, len(data))
		}
		for _, rec := range scan.records {
			if !rec.Type.Valid() {
				t.Fatalf("scanner produced invalid record %+v", rec)
			}
		}
	})
}

func TestCheckFailRecordType(t *testing.T) {
	if !RecordCheckFail.Valid() {
		t.Fatal("check-fail not a valid record type")
	}
	if RecordCheckFail.Command() {
		t.Fatal("check-fail must be an annotation, never replayed")
	}
	r := Record{Seq: 3, Type: RecordCheckFail, ID: "x", Reason: "consistency check timed out"}
	payload, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != RecordCheckFail || got.ID != "x" || got.Reason != r.Reason {
		t.Fatalf("round trip changed record: %+v", got)
	}
}

package middleware

import (
	"strings"
	"testing"

	"ctxres/internal/strategy"
	"ctxres/internal/telemetry"
	"ctxres/internal/wal"
)

// find returns the first recorded span with the given op, or nil
// (memSink itself lives in telemetry_test.go).
func (s *memSink) find(op string) *telemetry.Span {
	if sps := s.byOp(op); len(sps) > 0 {
		return sps[0]
	}
	return nil
}

var testTrace = telemetry.TraceContext{
	TraceID: strings.Repeat("fe", 16),
	SpanID:  "0011223344556677",
}

// TestTracedSubmitStampsWALRecords pins trace propagation into the
// journal: a traced submission's records carry the trace ID and the
// pipeline span's ID (so followers can parent their apply spans on it),
// and untraced submissions leave the fields empty — the record encoding
// is unchanged when tracing is off.
func TestTracedSubmitStampsWALRecords(t *testing.T) {
	dir := t.TempDir()
	sink := &memSink{}
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(),
		WithSpanSink(sink)), openTestJournal(t, dir))

	if _, err := m.SubmitOpts(loc("d1", 1, 0), SubmitOptions{Trace: testTrace}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(loc("d2", 2, 1)); err != nil { // untraced
		t.Fatal(err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	sp := sink.find("submit")
	if sp == nil || sp.TraceID != testTrace.TraceID || sp.ParentID != testTrace.SpanID {
		t.Fatalf("submit span = %+v, want joined to %+v", sp, testTrace)
	}

	recs, err := wal.Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	var traced, untraced *wal.Record
	for i := range recs {
		switch {
		case recs[i].Context != nil && recs[i].Context.ID == "d1":
			traced = &recs[i]
		case recs[i].Context != nil && recs[i].Context.ID == "d2":
			untraced = &recs[i]
		}
	}
	if traced == nil || untraced == nil {
		t.Fatalf("journal missing submit records: %+v", recs)
	}
	if traced.TraceID != testTrace.TraceID {
		t.Fatalf("record trace = %q, want %q", traced.TraceID, testTrace.TraceID)
	}
	if traced.SpanID != sp.SpanID {
		t.Fatalf("record span = %q, want the pipeline span %q", traced.SpanID, sp.SpanID)
	}
	if untraced.TraceID != "" || untraced.SpanID != "" {
		t.Fatalf("untraced record carries trace fields: %+v", untraced)
	}
}

// TestWalWaitSpanUnderGroupCommit pins the commit-wait hop: under group
// commit the acknowledgment waits for a shared fsync, and that wait is
// its own span parented on the submission's pipeline span.
func TestWalWaitSpanUnderGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	m := journaled(t, New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(),
		WithSpanSink(sink)), j)

	if _, err := m.SubmitOpts(loc("d1", 1, 0), SubmitOptions{Trace: testTrace}); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	submit := sink.find("submit")
	wait := sink.find("wal_wait")
	if submit == nil || wait == nil {
		t.Fatalf("spans missing: submit=%v wait=%v", submit, wait)
	}
	if wait.TraceID != testTrace.TraceID || wait.ParentID != submit.SpanID {
		t.Fatalf("wal_wait span = %+v, want child of submit %q", wait, submit.SpanID)
	}
	if wait.Outcome != "durable" {
		t.Fatalf("wal_wait outcome = %q", wait.Outcome)
	}
}

// TestUseTraceJoins pins trace propagation on the read path.
func TestUseTraceJoins(t *testing.T) {
	sink := &memSink{}
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad(), WithSpanSink(sink))
	if _, err := m.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.UseTrace("d1", testTrace); err != nil {
		t.Fatal(err)
	}
	sp := sink.find("use")
	if sp == nil || sp.TraceID != testTrace.TraceID || sp.ParentID != testTrace.SpanID {
		t.Fatalf("use span = %+v, want joined to %+v", sp, testTrace)
	}
}

// TestProvenanceRecordsEveryViolation pins the ring contents: one event
// per violation with the strategy's discard decision, recorded whether
// or not the operation was traced.
func TestProvenanceRecordsEveryViolation(t *testing.T) {
	prov := telemetry.NewProvenanceRing(0)
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropLatest(), WithProvenance(prov))
	if _, err := m.Submit(loc("d1", 1, 0)); err != nil {
		t.Fatal(err)
	}
	vios, err := m.Submit(loc("d2", 2, 100)) // velocity violation
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) == 0 {
		t.Fatal("no violation provoked")
	}
	events := prov.Events(0)
	if len(events) != len(vios) {
		t.Fatalf("events = %d, want one per violation (%d)", len(events), len(vios))
	}
	ev := events[0]
	if ev.Constraint != "vel" || ev.Strategy != "D-LAT" {
		t.Fatalf("event = %+v", ev)
	}
	if len(ev.Discarded) != 1 || ev.Discarded[0] != "d2" {
		t.Fatalf("discarded = %v, want the latest context d2", ev.Discarded)
	}
	if ev.TraceID != "" {
		t.Fatalf("untraced resolution carries trace %q", ev.TraceID)
	}
}

package pool

import (
	"encoding/json"
	"testing"
	"time"

	"ctxres/internal/ctx"
)

var snapClock = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func snapCtx(id string, seq uint64, opts ...ctx.Option) *ctx.Context {
	all := append([]ctx.Option{
		ctx.WithID(ctx.ID(id)), ctx.WithSeq(seq), ctx.WithSource("s"),
	}, opts...)
	return ctx.NewLocation("peter", snapClock.Add(time.Duration(seq)*time.Second),
		ctx.Point{X: float64(seq)}, all...)
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New()
	a := snapCtx("a", 1)
	b := snapCtx("b", 2)
	c := snapCtx("c", 3, ctx.WithTTL(time.Second))
	d := snapCtx("d", 4)
	for _, cc := range []*ctx.Context{a, b, c, d} {
		if err := p.Add(cc); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetState(ctx.Consistent); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkUsed("b"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetState(ctx.Inconsistent); err != nil {
		t.Fatal(err)
	}
	if err := p.Discard("d"); err != nil {
		t.Fatal(err)
	}
	if expired := p.SweepExpired(snapClock.Add(time.Hour)); len(expired) != 1 || expired[0].ID != "c" {
		t.Fatalf("swept %v, want just c", expired)
	}

	// Serialize through JSON, as the WAL does, then restore.
	snap := p.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	p2, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := p2.Stats(), p.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	if !p2.Used("b") || !p2.Discarded("d") {
		t.Fatal("life-cycle flags lost in restore")
	}
	rb, ok := p2.Get("b")
	if !ok || rb.State() != ctx.Consistent {
		t.Fatalf("restored b state = %v", rb.State())
	}
	rd, _ := p2.Get("d")
	if rd.State() != ctx.Inconsistent {
		t.Fatalf("restored d state = %v", rd.State())
	}
	ra, _ := p2.Get("a")
	if ra.State() != ctx.Undecided {
		t.Fatalf("restored a state = %v", ra.State())
	}

	// The restored checking buffer and kind index match the original.
	if got, want := len(p2.Checking()), len(p.Checking()); got != want {
		t.Fatalf("checking = %d, want %d", got, want)
	}
	if got, want := len(checkingOfKind(p2, ctx.KindLocation)), len(checkingOfKind(p, ctx.KindLocation)); got != want {
		t.Fatalf("kind index = %d, want %d", got, want)
	}

	// Byte-identical re-serialization: the equivalence check the crash
	// property test relies on.
	data2, err := json.Marshal(p2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("snapshot not byte-stable:\n%s\nvs\n%s", data, data2)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, err := Restore(Snapshot{Entries: []EntrySnapshot{{Context: nil, State: "undecided"}}}); err == nil {
		t.Fatal("nil context accepted")
	}
	c := snapCtx("a", 1)
	if _, err := Restore(Snapshot{Entries: []EntrySnapshot{{Context: c, State: "wat"}}}); err == nil {
		t.Fatal("bad state accepted")
	}
	dup := Snapshot{Entries: []EntrySnapshot{
		{Context: snapCtx("a", 1), State: "undecided"},
		{Context: snapCtx("a", 2), State: "undecided"},
	}}
	if _, err := Restore(dup); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

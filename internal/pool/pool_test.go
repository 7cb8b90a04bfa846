package pool

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"ctxres/internal/ctx"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func mk(id string, opts ...ctx.Option) *ctx.Context {
	opts = append([]ctx.Option{ctx.WithID(ctx.ID(id))}, opts...)
	return ctx.NewLocation("peter", t0, ctx.Point{}, opts...)
}

func TestAddAndGet(t *testing.T) {
	p := New()
	c := mk("a")
	if err := p.Add(c); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get("a")
	if !ok || got.ID != "a" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := p.Get("missing"); ok {
		t.Fatal("missing found")
	}
}

func TestAddRejectsNilInvalidDuplicate(t *testing.T) {
	p := New()
	if err := p.Add(nil); err == nil {
		t.Fatal("nil accepted")
	}
	bad := mk("b")
	bad.Kind = ""
	if err := p.Add(bad); !errors.Is(err, ctx.ErrNoKind) {
		t.Fatalf("invalid accepted: %v", err)
	}
	c := mk("a")
	if err := p.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(mk("a")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate accepted: %v", err)
	}
}

func TestCheckingAndAvailableViews(t *testing.T) {
	p := New()
	a, b, c := mk("a"), mk("b"), mk("c")
	for _, x := range []*ctx.Context{a, b, c} {
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(p.Checking()); got != 3 {
		t.Fatalf("Checking = %d", got)
	}
	if err := p.MarkUsed("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Discard("b"); err != nil {
		t.Fatal(err)
	}
	checking := p.Checking()
	if len(checking) != 1 || checking[0].ID != "c" {
		t.Fatalf("Checking = %v", checking)
	}
	avail := p.Available()
	if len(avail) != 2 { // a (used) and c (undecided) remain available
		t.Fatalf("Available = %v", avail)
	}
	if p.Discarded("a") || !p.Discarded("b") {
		t.Fatal("Discarded flags wrong")
	}
	if !p.Used("a") || p.Used("c") {
		t.Fatal("Used flags wrong")
	}
}

func TestMarkUsedAndDiscardErrors(t *testing.T) {
	p := New()
	if err := p.MarkUsed("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := p.Discard("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestIdempotentMarkUsedDiscard(t *testing.T) {
	p := New()
	if err := p.Add(mk("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.MarkUsed("a"); err != nil {
			t.Fatal(err)
		}
		if err := p.Discard("a"); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Used != 1 || s.Discarded != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestSweepExpired(t *testing.T) {
	p := New()
	shortLived := mk("s", ctx.WithTTL(5*time.Second))
	eternal := mk("e")
	usedShort := mk("u", ctx.WithTTL(5*time.Second))
	for _, c := range []*ctx.Context{shortLived, eternal, usedShort} {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.MarkUsed("u"); err != nil {
		t.Fatal(err)
	}
	fromChecking := p.SweepExpired(t0.Add(10 * time.Second))
	if len(fromChecking) != 1 || fromChecking[0].ID != "s" {
		t.Fatalf("fromChecking = %v, want only s (u expired outside checking)", fromChecking)
	}
	if got := p.Stats().Expired; got != 2 {
		t.Fatalf("Expired = %d, want 2", got)
	}
	// Second sweep is a no-op.
	if again := p.SweepExpired(t0.Add(20 * time.Second)); len(again) != 0 {
		t.Fatalf("second sweep = %v", again)
	}
	avail := p.Available()
	if len(avail) != 1 || avail[0].ID != "e" {
		t.Fatalf("Available = %v", avail)
	}
}

func TestCheckingUniverse(t *testing.T) {
	p := New()
	if err := p.Add(mk("a")); err != nil {
		t.Fatal(err)
	}
	u := p.CheckingUniverse()
	if got := len(u.ContextsOfKind(ctx.KindLocation)); got != 1 {
		t.Fatalf("universe size = %d", got)
	}
}

func TestAvailableBySubjectNewestFirst(t *testing.T) {
	p := New()
	older := ctx.NewLocation("peter", t0, ctx.Point{}, ctx.WithID("old"))
	newer := ctx.NewLocation("peter", t0.Add(time.Minute), ctx.Point{}, ctx.WithID("new"))
	alice := ctx.NewLocation("alice", t0, ctx.Point{}, ctx.WithID("alice1"))
	for _, c := range []*ctx.Context{older, newer, alice} {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	got := p.AvailableBySubject("peter")
	if len(got) != 2 || got[0].ID != "new" || got[1].ID != "old" {
		t.Fatalf("AvailableBySubject = %v", got)
	}
}

func TestAvailableByKind(t *testing.T) {
	p := New()
	locCtx := mk("l")
	rfid := ctx.New(ctx.KindRFIDRead, t0, nil, ctx.WithID("r"))
	if err := p.Add(locCtx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(rfid); err != nil {
		t.Fatal(err)
	}
	got := p.AvailableByKind(ctx.KindRFIDRead)
	if len(got) != 1 || got[0].ID != "r" {
		t.Fatalf("AvailableByKind = %v", got)
	}
}

func TestStatsAndLen(t *testing.T) {
	p := New()
	for _, id := range []string{"a", "b", "c"} {
		if err := p.Add(mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Discard("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkUsed("b"); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Added != 3 || s.Discarded != 1 || s.Used != 1 || s.Checking != 1 || s.Available != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestCompact(t *testing.T) {
	p := New()
	short := mk("s", ctx.WithTTL(time.Second))
	for _, c := range []*ctx.Context{mk("a"), mk("b"), short} {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Discard("a"); err != nil {
		t.Fatal(err)
	}
	p.SweepExpired(t0.Add(time.Hour))
	if removed := p.Compact(); removed != 2 {
		t.Fatalf("Compact = %d, want 2", removed)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after compact", p.Len())
	}
	if _, ok := p.Get("b"); !ok {
		t.Fatal("survivor b lost")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := ctx.NextID("conc")
				c := ctx.NewLocation("p", t0.Add(time.Duration(i)*time.Millisecond),
					ctx.Point{}, ctx.WithID(id))
				if err := p.Add(c); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if g%2 == 0 {
					_ = p.MarkUsed(id)
				} else {
					_ = p.Discard(id)
				}
				p.Available()
				p.Checking()
				p.Stats()
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 800 {
		t.Fatalf("Len = %d", p.Len())
	}
}

// TestKindIndexTracksLifecycle verifies the kind index mirrors the checking
// view through every life-cycle transition and stays chronologically
// ordered even for out-of-order insertion.
func TestKindIndexTracksLifecycle(t *testing.T) {
	p := New()
	// Insert out of chronological order: the index must order by
	// (timestamp, seq, ID), not insertion.
	late := mk("late", ctx.WithSeq(3))
	late.Timestamp = t0.Add(2 * time.Second)
	early := mk("early", ctx.WithSeq(1))
	mid := mk("mid", ctx.WithSeq(2))
	mid.Timestamp = t0.Add(1 * time.Second)
	for _, c := range []*ctx.Context{late, early, mid} {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	got := checkingOfKind(p, ctx.KindLocation)
	if len(got) != 3 || got[0].ID != "early" || got[1].ID != "mid" || got[2].ID != "late" {
		t.Fatalf("index order = %v", got)
	}

	// Leaving the checking buffer removes from the index; idempotently.
	if err := p.MarkUsed("mid"); err != nil {
		t.Fatal(err)
	}
	if err := p.Discard("late"); err != nil {
		t.Fatal(err)
	}
	_ = p.MarkUsed("mid")
	got = checkingOfKind(p, ctx.KindLocation)
	if len(got) != 1 || got[0].ID != "early" {
		t.Fatalf("index after transitions = %v", got)
	}

	// Expiry removes too.
	exp := mk("exp", ctx.WithSeq(4), ctx.WithTTL(time.Second))
	if err := p.Add(exp); err != nil {
		t.Fatal(err)
	}
	p.SweepExpired(t0.Add(time.Hour))
	got = checkingOfKind(p, ctx.KindLocation)
	if len(got) != 1 || got[0].ID != "early" {
		t.Fatalf("index after sweep = %v", got)
	}
	if checkingOfKind(p, ctx.KindRFIDRead) != nil {
		t.Fatal("unknown kind not empty")
	}
}

func TestRemoveRollsBackAdd(t *testing.T) {
	p := New()
	a, b := mk("a"), mk("b")
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get("b"); ok {
		t.Fatal("removed context still retrievable")
	}
	if st := p.Stats(); st.Added != 1 || st.Checking != 1 {
		t.Fatalf("stats = %+v, want added/checking rolled back to 1", st)
	}
	// The kind index forgets it too: only "a" remains in checking.
	if cs := checkingOfKind(p, ctx.KindLocation); len(cs) != 1 || cs[0].ID != "a" {
		t.Fatalf("checking = %v, want [a]", cs)
	}
	// Re-adding the removed ID is allowed — it was never here.
	if err := p.Add(mk("b")); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRemoveRollsBackLifecycleCounters(t *testing.T) {
	p := New()
	c := mk("c")
	if err := p.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkUsed("c"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Added != 0 || st.Used != 0 {
		t.Fatalf("stats = %+v, want all counters rolled back", st)
	}
}

// TestSweepVisitsOnlyWhatIsDue pins the sweep's cost without a stopwatch:
// the entries it pops or sifts past are none when nothing is due and
// k·O(log n) when k are, whatever is resident, and a sweep that finds
// nothing allocates nothing.
func TestSweepVisitsOnlyWhatIsDue(t *testing.T) {
	for _, resident := range []int{1000, 64000} {
		p := New()
		for i := 0; i < resident; i++ {
			c := ctx.NewLocation("peter", t0.Add(time.Duration(i)*time.Second), ctx.Point{},
				ctx.WithID(ctx.ID(fmt.Sprint("c", i))), ctx.WithTTL(time.Hour))
			if err := p.Add(c); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				_ = p.MarkUsed(c.ID)
			}
		}
		idle := t0.Add(time.Hour) // the oldest deadline itself: not yet passed
		before := p.visited
		if got := p.SweepExpired(idle); got != nil || p.visited != before {
			t.Fatalf("resident %d: idle sweep returned %v and visited %d entries", resident, got, p.visited-before)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.SweepExpired(idle) }); allocs != 0 {
			t.Fatalf("resident %d: idle sweep allocates %v times", resident, allocs)
		}
		const k = 8
		got := p.SweepExpired(idle.Add(k * time.Second))
		if len(got) != k/2 || p.Stats().Expired != k {
			t.Fatalf("resident %d: sweep returned %d contexts and expired %d, want %d and %d",
				resident, len(got), p.Stats().Expired, k/2, k)
		}
		if visited, bound := p.visited-before, uint64(k*(1+bits.Len(uint(resident)))); visited < k || visited > bound {
			t.Fatalf("resident %d: sweep of %d due entries visited %d, want %d..%d", resident, k, visited, k, bound)
		}
	}
}

// checkingOfKind is one kind of the checking buffer, in chronological order.
func checkingOfKind(p *Pool, kind ctx.Kind) []*ctx.Context {
	return p.CheckingUniverse().ContextsOfKind(kind)
}

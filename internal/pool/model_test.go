package pool

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
)

// modelPool is the scan-based pool this package had before its indexes: an
// insertion-order slice of IDs walked in full by every sweep and view, and
// views sorted on demand. It is the oracle the indexed Pool is compared
// against; nothing outside the tests uses it.
type modelPool struct {
	entries map[ctx.ID]*modelEntry
	order   []ctx.ID

	added, discarded, expired, used int
}

type modelEntry struct {
	c                        *ctx.Context
	used, discarded, expired bool
}

func (e *modelEntry) inChecking() bool { return !e.used && !e.discarded && !e.expired }
func (e *modelEntry) available() bool  { return !e.discarded && !e.expired }

func newModel() *modelPool { return &modelPool{entries: make(map[ctx.ID]*modelEntry)} }

func (p *modelPool) Add(c *ctx.Context) error {
	if c == nil {
		return errors.New("add: nil context")
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("add %s: %w", c.ID, err)
	}
	if _, dup := p.entries[c.ID]; dup {
		return fmt.Errorf("add %s: %w", c.ID, ErrDuplicate)
	}
	p.entries[c.ID] = &modelEntry{c: c}
	p.order = append(p.order, c.ID)
	p.added++
	return nil
}

func (p *modelPool) MarkUsed(id ctx.ID) error {
	e, ok := p.entries[id]
	if !ok {
		return fmt.Errorf("mark used %s: %w", id, ErrNotFound)
	}
	if !e.used {
		e.used = true
		p.used++
	}
	return nil
}

func (p *modelPool) Discard(id ctx.ID) error {
	e, ok := p.entries[id]
	if !ok {
		return fmt.Errorf("discard %s: %w", id, ErrNotFound)
	}
	if !e.discarded {
		e.discarded = true
		p.discarded++
	}
	return nil
}

func (p *modelPool) Remove(id ctx.ID) error {
	e, ok := p.entries[id]
	if !ok {
		return fmt.Errorf("remove %s: %w", id, ErrNotFound)
	}
	delete(p.entries, id)
	for i, oid := range p.order {
		if oid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.added--
	if e.discarded {
		p.discarded--
	}
	if e.expired {
		p.expired--
	}
	if e.used {
		p.used--
	}
	return nil
}

func (p *modelPool) SweepExpired(now time.Time) []*ctx.Context {
	var fromChecking []*ctx.Context
	for _, id := range p.order {
		e := p.entries[id]
		if e.expired || !e.c.Expired(now) {
			continue
		}
		if e.inChecking() {
			fromChecking = append(fromChecking, e.c)
		}
		e.expired = true
		p.expired++
	}
	return fromChecking
}

func (p *modelPool) filter(keep func(*modelEntry) bool) []*ctx.Context {
	var out []*ctx.Context
	for _, id := range p.order {
		if e := p.entries[id]; keep(e) {
			out = append(out, e.c)
		}
	}
	return out
}

func (p *modelPool) Checking() []*ctx.Context  { return p.filter((*modelEntry).inChecking) }
func (p *modelPool) Available() []*ctx.Context { return p.filter((*modelEntry).available) }
func (p *modelPool) Delivered() []*ctx.Context {
	return p.filter(func(e *modelEntry) bool { return e.used && e.available() })
}

func (p *modelPool) availableWhere(keep func(*ctx.Context) bool) []*ctx.Context {
	out := p.filter(func(e *modelEntry) bool { return e.available() && keep(e.c) })
	sort.Sort(sort.Reverse(ctx.ByTimestamp(out)))
	return out
}

func (p *modelPool) Stats() Stats {
	s := Stats{Added: p.added, Discarded: p.discarded, Expired: p.expired, Used: p.used}
	for _, e := range p.entries {
		if e.inChecking() {
			s.Checking++
		}
		if e.available() {
			s.Available++
		}
	}
	return s
}

func (p *modelPool) Compact() int {
	keep := p.order[:0]
	removed := 0
	for _, id := range p.order {
		if e := p.entries[id]; e.discarded || e.expired {
			delete(p.entries, id)
			removed++
			continue
		}
		keep = append(keep, id)
	}
	p.order = keep
	return removed
}

func (p *modelPool) Snapshot() Snapshot {
	s := Snapshot{
		Entries: make([]EntrySnapshot, 0, len(p.order)),
		Added:   p.added, Discarded: p.discarded, Expired: p.expired, Used: p.used,
	}
	for _, id := range p.order {
		e := p.entries[id]
		s.Entries = append(s.Entries, EntrySnapshot{Context: e.c, State: e.c.State().String(),
			Used: e.used, Discarded: e.discarded, Expired: e.expired})
	}
	return s
}

func restoreModel(s Snapshot) *modelPool {
	p := newModel()
	for _, es := range s.Entries {
		p.entries[es.Context.ID] = &modelEntry{c: es.Context, used: es.Used, discarded: es.Discarded, expired: es.Expired}
		p.order = append(p.order, es.Context.ID)
	}
	p.added, p.discarded, p.expired, p.used = s.Added, s.Discarded, s.Expired, s.Used
	return p
}

var (
	modelKinds    = []ctx.Kind{ctx.KindLocation, ctx.KindRFIDRead, ctx.KindCall}
	modelSubjects = []string{"", "alice", "bob", "carol"}
	// Few distinct TTLs over few distinct timestamps: deadlines collide.
	modelTTLs = []time.Duration{0, 0, time.Second, 4 * time.Second, 4 * time.Second, 20 * time.Second}
)

// runModelProgram interprets prog as a sequence of pool operations, applies
// each to the indexed Pool and to the model, and after every one requires
// every observable of the two to be equal. Seeded tests and the fuzzer share
// it: a program is just bytes.
func runModelProgram(t testing.TB, prog []byte) {
	t.Helper()
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	impl, model := New(), newModel()
	var ids []ctx.ID // every ID ever offered, so stale ones get picked too
	pick := func() ctx.ID {
		if len(ids) == 0 {
			return "none"
		}
		return ids[next()%len(ids)]
	}
	for step := 0; len(prog) > 0; step++ {
		op := next() % 16
		var desc string
		switch {
		case op < 6: // Add; one in eight re-offers an ID
			id := ctx.ID(fmt.Sprintf("c%d", len(ids)))
			if a := next(); a%8 == 0 && len(ids) > 0 {
				id = ids[a/8%len(ids)]
			} else {
				ids = append(ids, id)
			}
			a, b := next(), next()
			c := ctx.New(modelKinds[a%3], t0.Add(time.Duration(a/3%24)*time.Second), nil,
				ctx.WithID(id), ctx.WithSubject(modelSubjects[b%4]),
				ctx.WithTTL(modelTTLs[b/4%len(modelTTLs)]), ctx.WithSeq(uint64(b/24%3)))
			desc = "Add " + c.String()
			sameErr(t, step, desc, impl.Add(c), model.Add(c))
		case op < 8:
			id := pick()
			desc = "MarkUsed " + string(id)
			sameErr(t, step, desc, impl.MarkUsed(id), model.MarkUsed(id))
		case op < 10:
			id := pick()
			desc = "Discard " + string(id)
			sameErr(t, step, desc, impl.Discard(id), model.Discard(id))
		case op == 10:
			id := pick()
			desc = "Remove " + string(id)
			sameErr(t, step, desc, impl.Remove(id), model.Remove(id))
		case op < 14: // sweeps run at any clock, earlier ones included
			now := t0.Add(time.Duration(next()%48) * time.Second)
			desc = "SweepExpired +" + now.Sub(t0).String()
			sameList(t, step, desc, impl.SweepExpired(now), model.SweepExpired(now))
		case op == 14:
			desc = "Compact"
			if got, want := impl.Compact(), model.Compact(); got != want {
				t.Fatalf("step %d %s: removed %d, model %d", step, desc, got, want)
			}
		default:
			desc = "Snapshot→Restore"
			restored, err := Restore(impl.Snapshot())
			if err != nil {
				t.Fatalf("step %d %s: %v", step, desc, err)
			}
			impl, model = restored, restoreModel(model.Snapshot())
		}
		sameViews(t, step, desc, impl, model)
	}
}

func sameErr(t testing.TB, step int, desc string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || errors.Is(got, ErrNotFound) != errors.Is(want, ErrNotFound) ||
		errors.Is(got, ErrDuplicate) != errors.Is(want, ErrDuplicate) {
		t.Fatalf("step %d %s: error %v, model %v", step, desc, got, want)
	}
}

// sameList compares by context identity, order included; nil equals empty.
func sameList(t testing.TB, step int, what string, got, want []*ctx.Context) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d %s: %v, model %v", step, what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d %s: position %d: %v, model %v", step, what, i, got, want)
		}
	}
}

func sameViews(t testing.TB, step int, desc string, impl *Pool, model *modelPool) {
	t.Helper()
	at := func(view string) string { return desc + ": " + view }
	sameList(t, step, at("Checking"), impl.Checking(), model.Checking())
	sameList(t, step, at("Available"), impl.Available(), model.Available())
	sameList(t, step, at("Delivered"), impl.Delivered(), model.Delivered())
	full := constraint.NewSliceUniverse(model.Checking())
	u := impl.CheckingUniverse()
	if u.Len() != full.Len() {
		t.Fatalf("step %d %s: universe size %d, model %d", step, desc, u.Len(), full.Len())
	}
	for _, k := range modelKinds {
		ofKind := func(c *ctx.Context) bool { return c.Kind == k }
		newestFirst := impl.AvailableByKind(k)
		sameList(t, step, at("AvailableByKind "+string(k)), newestFirst, model.availableWhere(ofKind))
		chrono := impl.AvailableOfKind(k)
		for j := range chrono {
			if chrono[j] != newestFirst[len(chrono)-1-j] {
				t.Fatalf("step %d %s: AvailableOfKind %s is not AvailableByKind reversed", step, desc, k)
			}
		}
		sameList(t, step, at("CheckingUniverse "+string(k)), u.ContextsOfKind(k), full.ContextsOfKind(k))
		for _, s := range modelSubjects {
			var newest *ctx.Context
			if match := model.availableWhere(func(c *ctx.Context) bool { return ofKind(c) && (s == "" || c.Subject == s) }); len(match) > 0 {
				newest = match[0]
			}
			if got := impl.NewestAvailable(k, s); got != newest {
				t.Fatalf("step %d %s: NewestAvailable(%s,%q) = %v, model %v", step, desc, k, s, got, newest)
			}
		}
	}
	for _, s := range modelSubjects {
		sameList(t, step, at("AvailableBySubject "+s), impl.AvailableBySubject(s),
			model.availableWhere(func(c *ctx.Context) bool { return c.Subject == s }))
	}
	if got, want := impl.Stats(), model.Stats(); got != want {
		t.Fatalf("step %d %s: Stats %+v, model %+v", step, desc, got, want)
	}
	if got, want := impl.Len(), len(model.entries); got != want {
		t.Fatalf("step %d %s: Len %d, model %d", step, desc, got, want)
	}
	if got, want := impl.Snapshot(), model.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d %s: Snapshot\n %+v\nmodel\n %+v", step, desc, got, want)
	}
}

func randomProgram(seed int64, n int) []byte {
	prog := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// TestPoolMatchesScanModel is the oracle for "the indexes changed no
// behaviour": 256 seeded programs, every observable compared after every
// operation.
func TestPoolMatchesScanModel(t *testing.T) {
	for seed := int64(1); seed <= 256; seed++ {
		runModelProgram(t, randomProgram(seed, 400))
	}
}

func FuzzPoolModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomProgram(seed, 300))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// Every step compares every view, so a run is quadratic in its length.
		runModelProgram(t, prog[:min(len(prog), 1024)])
	})
}

// Package pool stores the middleware's contexts and realizes the life-cycle
// views the paper's resolution model needs:
//
//   - the checking buffer: contexts that are alive (neither discarded nor
//     expired) and not yet used — the universe consistency constraints
//     quantify over;
//   - the available view: contexts applications may read — delivered (used)
//     or decided-consistent contexts that have not expired. Per Section 3.2,
//     a context deletion change only removes a context from checking; the
//     context remains available until its own available period passes.
//
// No operation on the request path visits an entry it neither changes nor
// returns; DESIGN.md, "Pool indexes", says how.
package pool

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
)

// Errors returned by pool operations.
var (
	ErrNotFound  = errors.New("context not found")
	ErrDuplicate = errors.New("context already in pool")
)

// entry is one slot of Pool.slots. Entries name each other by slot number:
// 32 bytes a resident context, one pointer for the collector to follow.
type entry struct {
	c          *ctx.Context
	ord        uint64 // insertion ordinal: list order, comparable without walking
	prev, next int32  // insertion-order ring through slot 0; next chains free slots
	duePos     int32  // 1 + position in Pool.due; 0 when not in the heap
	used       bool
	discarded  bool
	expired    bool
}

func (e *entry) inChecking() bool { return !e.used && !e.discarded && !e.expired }
func (e *entry) available() bool  { return !e.discarded && !e.expired }

// kindView is a life-cycle view: per kind, the slots of its members in
// chronological order. ctx.Earlier is a total order, so a list maintained
// by insertion equals the batch sort of its members.
type kindView map[ctx.Kind][]int32

func (p *Pool) viewAdd(v kindView, slot int32) {
	c := p.slots[slot].c
	list := v[c.Kind]
	i := len(list)
	if i > 0 && !ctx.Earlier(p.slots[list[i-1]].c, c) { // arrivals are mostly the newest
		i = sort.Search(i, func(i int) bool { return ctx.Earlier(c, p.slots[list[i]].c) })
	}
	v[c.Kind] = slices.Insert(list, i, slot)
}

// viewRemove drops the slot by binary search; an absent one is a no-op.
func (p *Pool) viewRemove(v kindView, slot int32) {
	c := p.slots[slot].c
	list := v[c.Kind]
	i := 0
	if len(list) > 0 && list[0] != slot { // departures are mostly the oldest
		i = sort.Search(len(list), func(i int) bool { return !ctx.Earlier(p.slots[list[i]].c, c) })
	}
	if i < len(list) && list[i] == slot {
		v[c.Kind] = cut(list, i)
	}
}

// cut removes list[i]; the head — the oldest member, the usual one to go —
// is stepped over rather than having the whole list shifted onto it.
func cut(list []int32, i int) []int32 {
	if i == 0 {
		return list[1:]
	}
	return slices.Delete(list, i, i+1)
}

// Pool is a concurrency-safe context repository.
type Pool struct {
	mu    sync.RWMutex
	index map[ctx.ID]int32
	// slots[0] is the sentinel of the insertion-order ring; slots never
	// move, released ones are reused through the free chain.
	slots   []entry
	free    int32
	nextOrd uint64

	// due is a min-heap of slots on the end of the available period
	// (Timestamp+TTL). It holds every unexpired entry with a TTL,
	// discarded ones too: the sweep marks those as the scan it replaced
	// did, so expired counters and snapshots do not depend on it.
	due []int32
	// dead lists what Compact will release: every entry that is not available.
	dead []int32

	checking  kindView // the checking buffer: available and not used
	avail     kindView // the available view
	delivered []int32  // available and used, in insertion order

	visited uint64 // entries a sweep popped or sifted past (tests read it)

	added, discarded, expired, used int // counters
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{index: make(map[ctx.ID]int32), slots: make([]entry, 1), checking: make(kindView), avail: make(kindView)}
}

// Add inserts a context. Duplicate IDs are rejected.
func (p *Pool) Add(c *ctx.Context) error {
	if c == nil {
		return errors.New("add: nil context")
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("add %s: %w", c.ID, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.index[c.ID]; dup {
		return fmt.Errorf("add %s: %w", c.ID, ErrDuplicate)
	}
	p.insert(entry{c: c}) // new entries always start in the checking buffer
	p.added++
	return nil
}

// insert appends e to the insertion order and files it in the heap and the
// views its flags place it in (callers hold the write lock).
func (p *Pool) insert(e entry) {
	i := p.free
	if i != 0 {
		p.free = p.slots[i].next
	} else {
		p.slots = append(p.slots, entry{})
		i = int32(len(p.slots) - 1)
	}
	p.nextOrd++
	tail := p.slots[0].prev
	e.ord, e.prev, e.next = p.nextOrd, tail, 0
	p.slots[i] = e
	p.slots[tail].next, p.slots[0].prev = i, i
	p.index[e.c.ID] = i
	if !e.expired && e.c.TTL != 0 {
		p.due = append(p.due, i)
		p.dueFix(len(p.due) - 1)
	}
	if e.inChecking() {
		p.viewAdd(p.checking, i)
	}
	if e.available() {
		p.viewAdd(p.avail, i)
		if e.used {
			p.delivered = append(p.delivered, i)
		}
	} else {
		p.dead = append(p.dead, i)
	}
}

// release unlinks slot i from the insertion order, the heap and the index
// and frees it. The views must not hold it any more.
func (p *Pool) release(i int32) {
	e := &p.slots[i]
	p.slots[e.prev].next, p.slots[e.next].prev = e.next, e.prev
	if e.duePos != 0 {
		p.dueRemove(int(e.duePos - 1))
	}
	delete(p.index, e.c.ID)
	*e = entry{next: p.free}
	p.free = i
}

// withdraw takes an available entry out of the views: the checking buffer
// or, once used, the delivered view, and the available view.
func (p *Pool) withdraw(i int32) {
	if e := &p.slots[i]; e.used {
		p.delivered = cut(p.delivered, p.deliveredAt(e.ord))
	} else {
		p.viewRemove(p.checking, i)
	}
	p.viewRemove(p.avail, i)
}

// kill prepares slot i for its first dead flag (discarded or expired): it
// leaves the views and joins Compact's list. A second flag changes neither.
func (p *Pool) kill(i int32) {
	if p.slots[i].available() {
		p.withdraw(i)
		p.dead = append(p.dead, i)
	}
}

// deliveredAt is where the entry with the ordinal is, or belongs.
func (p *Pool) deliveredAt(ord uint64) int {
	return sort.Search(len(p.delivered), func(k int) bool { return p.slots[p.delivered[k]].ord >= ord })
}

func (p *Pool) dueLess(a, b int32) bool {
	ca, cb := p.slots[a].c, p.slots[b].c
	return ca.Timestamp.Add(ca.TTL).Before(cb.Timestamp.Add(cb.TTL))
}

func (p *Pool) dueSet(k int, slot int32) {
	p.due[k] = slot
	p.slots[slot].duePos = int32(k + 1)
}

// dueFix restores the heap around position k, whose slot is new there.
func (p *Pool) dueFix(k int) {
	slot := p.due[k]
	for k > 0 && p.dueLess(slot, p.due[(k-1)/2]) {
		p.dueSet(k, p.due[(k-1)/2])
		k = (k - 1) / 2
	}
	for { // a slot that moved up is already below nothing it should be above
		child := 2*k + 1
		if child+1 < len(p.due) && p.dueLess(p.due[child+1], p.due[child]) {
			child++
		}
		if child >= len(p.due) || !p.dueLess(p.due[child], slot) {
			break
		}
		p.dueSet(k, p.due[child])
		k = child
		p.visited++
	}
	p.dueSet(k, slot)
}

// dueRemove takes the heap's k-th element out.
func (p *Pool) dueRemove(k int) {
	p.slots[p.due[k]].duePos = 0
	last := len(p.due) - 1
	moved := p.due[last]
	p.due = p.due[:last]
	if k < last {
		p.due[k] = moved
		p.dueFix(k)
	}
}

// Get returns the context regardless of its life-cycle flags.
func (p *Pool) Get(id ctx.ID) (*ctx.Context, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	i, ok := p.index[id]
	return p.slots[i].c, ok // slot 0, the sentinel, holds no context
}

// MarkUsed records a context deletion change: the context leaves the
// checking buffer but stays available until expiry.
func (p *Pool) MarkUsed(id ctx.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[id]
	if !ok {
		return fmt.Errorf("mark used %s: %w", id, ErrNotFound)
	}
	if e := &p.slots[i]; !e.used {
		if e.available() {
			p.viewRemove(p.checking, i)
			p.delivered = slices.Insert(p.delivered, p.deliveredAt(e.ord), i)
		}
		e.used = true
		p.used++
	}
	return nil
}

// Discard removes the context from both checking and availability.
func (p *Pool) Discard(id ctx.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[id]
	if !ok {
		return fmt.Errorf("discard %s: %w", id, ErrNotFound)
	}
	if e := &p.slots[i]; !e.discarded {
		p.kill(i)
		e.discarded = true
		p.discarded++
	}
	return nil
}

// Remove deletes a context from the pool entirely, as if it had never
// been added (the added counter is rolled back too). This is the
// admission-rollback hook: when the middleware's check watchdog aborts a
// submission after the context was admitted, the context is removed so
// the pool matches the state a recovery would reconstruct. It is not a
// life-cycle transition — use Discard for those.
func (p *Pool) Remove(id ctx.ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[id]
	if !ok {
		return fmt.Errorf("remove %s: %w", id, ErrNotFound)
	}
	e := p.slots[i]
	if e.available() {
		p.withdraw(i)
	} else {
		// Not a rollback's case: leave Compact's list before the slot is reused.
		p.dead = slices.DeleteFunc(p.dead, func(d int32) bool { return d == i })
	}
	p.release(i)
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

// Discarded reports whether the context has been discarded.
func (p *Pool) Discarded(id ctx.ID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	i, ok := p.index[id]
	return ok && p.slots[i].discarded
}

// Used reports whether the context has been used.
func (p *Pool) Used(id ctx.ID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	i, ok := p.index[id]
	return ok && p.slots[i].used
}

// SweepExpired marks every entry whose available period has passed at now
// and returns those that expired while still in the checking buffer
// (unused and undiscarded), in insertion order, so the resolution strategy
// can release their tracked state. It pops the expiry heap while its top is
// due, so it costs O(expired · log n) and nothing when nothing is due; now
// need not be monotonic.
func (p *Pool) SweepExpired(now time.Time) []*ctx.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	var swept []int32
	for len(p.due) > 0 && p.slots[p.due[0]].c.Expired(now) {
		i := p.due[0]
		p.visited++
		p.dueRemove(0)
		if p.slots[i].inChecking() {
			swept = append(swept, i)
		}
		p.kill(i)
		p.slots[i].expired = true
		p.expired++
	}
	// The heap pops by deadline; callers journal in insertion order.
	slices.SortFunc(swept, func(a, b int32) int { return cmp.Compare(p.slots[a].ord, p.slots[b].ord) })
	return p.contexts(swept)
}

// contexts resolves slots to a fresh slice of their contexts, nil for none.
func (p *Pool) contexts(slots []int32) []*ctx.Context {
	if len(slots) == 0 {
		return nil
	}
	out := make([]*ctx.Context, len(slots))
	for k, i := range slots {
		out[k] = p.slots[i].c
	}
	return out
}

// inOrder collects, in insertion order, the contexts whose entries keep
// accepts. It walks every entry: nothing on the request path calls it.
func (p *Pool) inOrder(keep func(*entry) bool) []*ctx.Context {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*ctx.Context
	for i := p.slots[0].next; i != 0; i = p.slots[i].next {
		if e := &p.slots[i]; keep(e) {
			out = append(out, e.c)
		}
	}
	return out
}

// Checking returns the checking buffer in insertion order.
func (p *Pool) Checking() []*ctx.Context { return p.inOrder((*entry).inChecking) }

// CheckingUniverse returns the checking buffer as a constraint universe.
func (p *Pool) CheckingUniverse() *constraint.SliceUniverse {
	u, _ := p.checkingUniverse(nil, true)
	return u
}

// CheckingUniverseFor snapshots the checking buffer restricted to the given
// kinds using the kind index: no full-buffer scan, no re-sort (the index is
// maintained in chronological order, the same total order NewSliceUniverse
// sorts into). The returned universe is an immutable copy, safe to evaluate
// concurrently while the pool keeps mutating. The second result is the
// number of checking contexts pruned — live contexts whose kind no
// requested constraint quantifies over.
func (p *Pool) CheckingUniverseFor(kinds map[ctx.Kind]bool) (*constraint.SliceUniverse, int) {
	return p.checkingUniverse(kinds, false)
}

func (p *Pool) checkingUniverse(kinds map[ctx.Kind]bool, all bool) (*constraint.SliceUniverse, int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	byKind := make(map[ctx.Kind][]*ctx.Context, len(p.checking))
	pruned := 0
	for k, list := range p.checking {
		if len(list) == 0 {
			continue
		}
		if !all && !kinds[k] {
			pruned += len(list)
			continue
		}
		byKind[k] = p.contexts(list)
	}
	return constraint.NewPresortedUniverse(byKind), pruned
}

// Available returns the contexts applications may read, in insertion order.
func (p *Pool) Available() []*ctx.Context { return p.inOrder((*entry).available) }

// Delivered returns the contexts applications have actually consumed (used
// and still available) in insertion order — the view situations are
// evaluated over.
func (p *Pool) Delivered() []*ctx.Context {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.contexts(p.delivered)
}

// AvailableOfKind returns a copy of the available view restricted to one
// kind, in chronological order — what a universe's quantifiers range over.
func (p *Pool) AvailableOfKind(kind ctx.Kind) []*ctx.Context {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.contexts(p.avail[kind])
}

// AvailableByKind filters the available view by kind, newest first.
func (p *Pool) AvailableByKind(kind ctx.Kind) []*ctx.Context {
	out := p.AvailableOfKind(kind)
	slices.Reverse(out)
	return out
}

// NewestAvailable returns the newest available context of the kind and
// subject (empty subject matches any), or nil. It copies nothing.
func (p *Pool) NewestAvailable(kind ctx.Kind, subject string) *ctx.Context {
	p.mu.RLock()
	defer p.mu.RUnlock()
	list := p.avail[kind]
	for k := len(list) - 1; k >= 0; k-- {
		if c := p.slots[list[k]].c; subject == "" || c.Subject == subject {
			return c
		}
	}
	return nil
}

// AvailableBySubject filters the available view by subject, newest first.
// Each kind's matches come out of its list in order; only a subject with
// contexts of several kinds needs them sorted together.
func (p *Pool) AvailableBySubject(subject string) []*ctx.Context {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*ctx.Context
	kinds := 0
	for _, list := range p.avail {
		n := len(out)
		for k := len(list) - 1; k >= 0; k-- {
			if c := p.slots[list[k]].c; c.Subject == subject {
				out = append(out, c)
			}
		}
		if len(out) > n {
			kinds++
		}
	}
	if kinds > 1 {
		sort.Sort(sort.Reverse(ctx.ByTimestamp(out)))
	}
	return out
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Added     int `json:"added"`
	Discarded int `json:"discarded"`
	Expired   int `json:"expired"`
	Used      int `json:"used"`
	Checking  int `json:"checking"`
	Available int `json:"available"`
}

// Stats returns current counters.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Stats{
		Added:     p.added,
		Discarded: p.discarded,
		Expired:   p.expired,
		Used:      p.used,
		// Every entry is available or in dead; the available are delivered
		// or in the checking buffer.
		Checking:  len(p.index) - len(p.dead) - len(p.delivered),
		Available: len(p.index) - len(p.dead),
	}
}

// Len returns the total number of stored contexts (any state).
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.index)
}

// Compact drops discarded and expired entries to bound memory in long
// runs. It returns the number of entries removed, and visits only those.
func (p *Pool) Compact() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, i := range p.dead {
		p.release(i)
	}
	removed := len(p.dead)
	p.dead = p.dead[:0]
	return removed
}

package pool

import (
	"fmt"
	"slices"

	"ctxres/internal/ctx"
)

// EntrySnapshot is one pool entry in serializable form. The context uses
// its wire encoding (which deliberately resets life-cycle state on
// decode), so State carries the life-cycle decision explicitly alongside
// the repository flags.
type EntrySnapshot struct {
	Context   *ctx.Context `json:"context"`
	State     string       `json:"state"`
	Used      bool         `json:"used,omitempty"`
	Discarded bool         `json:"discarded,omitempty"`
	Expired   bool         `json:"expired,omitempty"`
}

// Snapshot is a full serialization of the pool: entries in insertion
// order plus the life-cycle counters (which can exceed the entry count
// after compaction).
type Snapshot struct {
	Entries   []EntrySnapshot `json:"entries"`
	Added     int             `json:"added"`
	Discarded int             `json:"discarded"`
	Expired   int             `json:"expired"`
	Used      int             `json:"used"`
}

// Snapshot serializes the pool. The returned snapshot aliases the live
// contexts (they are immutable apart from middleware-owned life-cycle
// state); marshal it before releasing the middleware lock.
func (p *Pool) Snapshot() Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := Snapshot{
		Entries:   make([]EntrySnapshot, 0, len(p.index)),
		Added:     p.added,
		Discarded: p.discarded,
		Expired:   p.expired,
		Used:      p.used,
	}
	for i := p.slots[0].next; i != 0; i = p.slots[i].next {
		e := &p.slots[i]
		s.Entries = append(s.Entries, EntrySnapshot{
			Context:   e.c,
			State:     e.c.State().String(),
			Used:      e.used,
			Discarded: e.discarded,
			Expired:   e.expired,
		})
	}
	return s
}

// Restore rebuilds a pool from a snapshot: entries, life-cycle state and
// flags, the expiry heap and the views, and the counters.
func Restore(s Snapshot) (*Pool, error) {
	p := New()
	p.slots = slices.Grow(p.slots, len(s.Entries))
	for i, es := range s.Entries {
		c := es.Context
		if c == nil {
			return nil, fmt.Errorf("pool: restore entry %d: nil context", i)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("pool: restore %s: %w", c.ID, err)
		}
		state, err := ctx.StateFromString(es.State)
		if err != nil {
			return nil, fmt.Errorf("pool: restore %s: %w", c.ID, err)
		}
		if state != ctx.Undecided {
			if err := c.SetState(state); err != nil {
				return nil, fmt.Errorf("pool: restore %s: %w", c.ID, err)
			}
		}
		if _, dup := p.index[c.ID]; dup {
			return nil, fmt.Errorf("pool: restore %s: %w", c.ID, ErrDuplicate)
		}
		p.insert(entry{c: c, used: es.Used, discarded: es.Discarded, expired: es.Expired})
	}
	p.added = s.Added
	p.discarded = s.Discarded
	p.expired = s.Expired
	p.used = s.Used
	return p, nil
}

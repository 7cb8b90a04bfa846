package constraint

import (
	"sort"

	"ctxres/internal/ctx"
)

// Universe supplies the contexts a constraint's quantifiers range over —
// typically a snapshot of the middleware's context pool.
type Universe interface {
	// ContextsOfKind returns the contexts of the given kind in a
	// deterministic (chronological) order. Callers must not mutate the
	// returned slice.
	ContextsOfKind(kind ctx.Kind) []*ctx.Context
}

// SliceUniverse is an immutable Universe over a fixed set of contexts,
// indexed by kind at construction time.
type SliceUniverse struct {
	byKind map[ctx.Kind][]*ctx.Context
	size   int
}

var _ Universe = (*SliceUniverse)(nil)

// NewSliceUniverse indexes the given contexts. Nil entries are skipped;
// each kind's slice is sorted chronologically for deterministic evaluation.
func NewSliceUniverse(contexts []*ctx.Context) *SliceUniverse {
	u := &SliceUniverse{byKind: make(map[ctx.Kind][]*ctx.Context)}
	for _, c := range contexts {
		if c == nil {
			continue
		}
		u.byKind[c.Kind] = append(u.byKind[c.Kind], c)
		u.size++
	}
	for _, list := range u.byKind {
		sort.Sort(ctx.ByTimestamp(list))
	}
	return u
}

// NewPresortedUniverse wraps per-kind context slices that are already in
// chronological (ctx.ByTimestamp) order, skipping the indexing and sorting
// NewSliceUniverse performs. The caller transfers ownership of the map and
// its slices: they must not be mutated afterwards, making the result an
// immutable snapshot safe to evaluate outside the pool's lock.
// Pool kind indexes use this to snapshot the checking buffer cheaply.
func NewPresortedUniverse(byKind map[ctx.Kind][]*ctx.Context) *SliceUniverse {
	if byKind == nil {
		byKind = make(map[ctx.Kind][]*ctx.Context)
	}
	u := &SliceUniverse{byKind: byKind}
	for _, list := range byKind {
		u.size += len(list)
	}
	return u
}

// ContextsOfKind implements Universe.
func (u *SliceUniverse) ContextsOfKind(kind ctx.Kind) []*ctx.Context {
	return u.byKind[kind]
}

// Len returns the total number of contexts across kinds.
func (u *SliceUniverse) Len() int { return u.size }

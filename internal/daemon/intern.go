package daemon

import (
	"sync"
	"sync/atomic"

	"ctxres/internal/ctx"
)

// Kind interning. Every decoded request re-allocates its kind strings;
// long-lived pool entries then each retain a private copy of what is, in
// any real deployment, a handful of distinct values ("location",
// "rfid", ...). Interning maps them to one shared instance on the decode
// path. The table is capped so adversarial kind churn degrades to plain
// allocation, never unbounded retention.
const maxInternedKinds = 1024

var (
	kindInternTable sync.Map // string -> ctx.Kind
	kindInternCount atomic.Int64
)

func internKind(k ctx.Kind) ctx.Kind {
	if k == "" {
		return k
	}
	if v, ok := kindInternTable.Load(string(k)); ok {
		return v.(ctx.Kind)
	}
	if kindInternCount.Load() >= maxInternedKinds {
		return k
	}
	v, loaded := kindInternTable.LoadOrStore(string(k), k)
	if !loaded {
		kindInternCount.Add(1)
	}
	return v.(ctx.Kind)
}

// internContextKinds rewrites decoded contexts' kinds in place.
func internContextKinds(cs []*ctx.Context) {
	for _, c := range cs {
		if c != nil {
			c.Kind = internKind(c.Kind)
		}
	}
}

// internRequest rewrites a decoded request's kind strings to their
// interned instances.
func internRequest(req *Request) {
	req.Kind = internKind(req.Kind)
	if req.Context != nil {
		req.Context.Kind = internKind(req.Context.Kind)
	}
	internContextKinds(req.Contexts)
}

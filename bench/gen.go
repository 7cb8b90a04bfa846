package main

import (
	"fmt"
	"math/rand"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/errmodel"
	"ctxres/internal/simspace"
)

// Every generated stream lives on one logical time line that starts at
// epoch and advances one slot per context across all lanes, so the
// middleware's clock (the newest timestamp it has seen) moves at the same
// pace whichever lane happens to run ahead.
var epoch = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

// errorRate is the controlled error rate of the streams drop-bad works on
// (the paper's 20 % point): high enough that it resolves and discards all
// the time, low enough that most uses deliver.
const errorRate = 0.2

// stream generates one lane's location contexts: the lane's subjects take
// turns, each walking the call-forwarding route from its own starting
// phase, with the paper's location-jump corruption injected at errorRate.
// Consecutive contexts of one subject are callforward.SampleStep apart in
// logical time, as in the Figure 9 workload, so the velocity constraints
// see the geometry they were written for.
type stream struct {
	lane, lanes int
	subjects    []string
	seqs        []uint64
	slot        time.Duration // logical time between consecutive contexts (all lanes)
	ttl         time.Duration
	walker      *simspace.Walker
	inj         *errmodel.Injector
	n           int // contexts generated so far
}

// newStreams splits subjects round-robin over lanes. ttlSlots is the
// available period in slots, i.e. in contexts submitted across all lanes;
// errRate is the share of contexts corrupted.
func newStreams(seed int64, lanes int, subjects []string, ttlSlots, errRate float64) []*stream {
	slot := callforward.SampleStep / time.Duration(len(subjects))
	out := make([]*stream, lanes)
	for l := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(l)))
		inj, err := errmodel.NewInjector(errRate, rng)
		if err != nil {
			panic(err) // the rates passed are constants in range
		}
		inj.Register(ctx.KindLocation, errmodel.LocationJump(3, 8))
		s := &stream{
			lane: l, lanes: lanes, slot: slot,
			ttl:    time.Duration(ttlSlots * float64(slot)),
			walker: callforward.Walk(simspace.OfficeFloor()),
			inj:    inj,
		}
		for i := l; i < len(subjects); i += lanes {
			s.subjects = append(s.subjects, subjects[i])
		}
		s.seqs = make([]uint64, len(s.subjects))
		out[l] = s
	}
	return out
}

func (s *stream) next() *ctx.Context {
	k := s.n
	s.n++
	si := k % len(s.subjects)
	s.seqs[si]++
	seq := s.seqs[si]
	subject := s.subjects[si]
	at := epoch.Add(time.Duration(k*s.lanes+s.lane) * s.slot)
	// Each subject starts 37 s further along the route, so the subjects
	// are spread over the floor rather than walking in lockstep.
	phase := time.Duration(si*s.lanes+s.lane) * 37 * time.Second
	pos := s.walker.PositionAt(phase + time.Duration(seq)*callforward.SampleStep)
	c := ctx.NewLocation(subject, at, pos,
		ctx.WithID(ctx.ID(fmt.Sprintf("%s-%d", subject, seq))),
		ctx.WithSource(sourceOf(subject)),
		ctx.WithSeq(seq),
		ctx.WithTTL(s.ttl))
	s.inj.Apply(c)
	return c
}

// sourceOf names the context source that reports on subject: one badge
// each. The router partitions by source, so a subject's shard is the ring
// owner of this name.
func sourceOf(subject string) string { return "badge-" + subject }

func subjectNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// preloadContexts are the resident contexts of the large-pool workloads:
// n clean locations over n/10 subjects, stamped before epoch and living
// for the whole run, so they stay in the available view (and in every
// whole-pool walk) without ever entering a measurement as an expiry.
func preloadContexts(seed int64, n int) []*ctx.Context {
	subjects := subjectNames("res", (n+9)/10)
	rng := rand.New(rand.NewSource(seed*1000003 + 999))
	floor := simspace.OfficeFloor()
	out := make([]*ctx.Context, n)
	for i := range out {
		subject := subjects[i%len(subjects)]
		seq := uint64(i/len(subjects) + 1)
		at := epoch.Add(-time.Duration(n-i) * time.Millisecond)
		pos := ctx.Point{X: rng.Float64() * floor.Width, Y: rng.Float64() * floor.Height}
		out[i] = ctx.NewLocation(subject, at, pos,
			ctx.WithID(ctx.ID(fmt.Sprintf("%s-%d", subject, seq))),
			ctx.WithSource(sourceOf(subject)),
			ctx.WithSeq(seq),
			ctx.WithTTL(10000*time.Hour))
	}
	return out
}

// callForwardingChecker is the paper's full Call Forwarding constraint set.
func callForwardingChecker() *constraint.Checker {
	return callforward.Checker(simspace.OfficeFloor())
}

// unaryChecker keeps only the two Call Forwarding constraints that bind one
// context: checking them never looks at the rest of the buffer, and a
// shard router can prove them source-local.
func unaryChecker() *constraint.Checker {
	ch := constraint.NewChecker()
	for _, c := range callforward.Constraints(simspace.OfficeFloor()) {
		if c.Name == "cf-feasible-area" || c.Name == "cf-restricted-area" {
			ch.MustRegister(c)
		}
	}
	if n := len(ch.Constraints()); n != 2 {
		// A renamed constraint would otherwise leave three workloads
		// checking nothing, and passing.
		panic(fmt.Sprintf("bench: found %d of the 2 unary Call Forwarding constraints", n))
	}
	return ch
}

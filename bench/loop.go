package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A request is what one lane sends and waits for: a submit, a use, a
// batch. Its latency goes to one of two series.
const (
	seriesSubmit = iota
	seriesUse
	nSeries
)

// outcome is what one request did: which latency series it belongs to, how
// many application ops it carried (a batch of 16 carries 16) and how many
// of them failed.
type outcome struct {
	series int
	ops    int
	failed int
}

// stepFunc sends lane's next request and waits for the reply.
type stepFunc func(lane int) outcome

// tally sums outcomes; one per lane, merged after the phase.
type tally struct {
	ops, failed int64
	lat         [nSeries][]time.Duration
	late        []time.Duration // how late the generator itself sent (open loop)
}

func (t *tally) add(o outcome) {
	t.ops += int64(o.ops)
	t.failed += int64(o.failed)
}

func (t *tally) merge(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	for s := range t.lat {
		t.lat[s] = append(t.lat[s], o.lat[s]...)
	}
	t.late = append(t.late, o.late...)
}

func mergeTallies(ts []tally) tally {
	var out tally
	for _, t := range ts {
		out.merge(t)
	}
	return out
}

// maxSkew is how many requests a lane may run ahead of the slowest lane.
// The lanes share one logical clock (the newest timestamp submitted), so an
// unbounded lead would expire the slow lane's contexts before it uses them;
// with the lead bounded inside every workload's available period that
// cannot happen. The wait is almost never taken, and in the open loop it is
// charged to the waiting request's latency like any other delay.
const maxSkew = 4

// pace tracks how many requests each lane has completed.
type pace []atomic.Int64

// wait blocks lane until it is at most maxSkew requests ahead of the
// slowest other lane, then returns; done records one more completed.
func (p pace) wait(lane int) {
	mine := p[lane].Load()
	for {
		lo := int64(math.MaxInt64)
		for i := range p {
			if v := p[i].Load(); i != lane && v < lo {
				lo = v
			}
		}
		if mine-lo <= maxSkew {
			return
		}
		runtime.Gosched()
	}
}

func (p pace) done(lane int)   { p[lane].Add(1) }
func (p pace) finish(lane int) { p[lane].Store(math.MaxInt64 / 2) } // holds nobody back

// closedLoop runs one goroutine per lane, each sending its next request as
// soon as the previous reply arrives, until every lane has spent its share
// of the application-op budget. Fixed work, not fixed time: a faster system
// finishes sooner but ends in the same state.
func closedLoop(lanes int, opBudget int64, step stepFunc) (tally, time.Duration) {
	tallies := make([]tally, lanes)
	p := make(pace, lanes)
	share := opBudget / int64(lanes)
	var wg sync.WaitGroup
	start := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			defer p.finish(l)
			for t := &tallies[l]; t.ops < share; p.done(l) {
				p.wait(l)
				t.add(step(l))
			}
		}(l)
	}
	wg.Wait()
	return mergeTallies(tallies), time.Since(start)
}

// openLoop sends requests on one global schedule, start + i/rate, dealt
// round-robin to the lanes (request i belongs to lane i mod lanes, which
// keeps each lane's stream in order). Latency is measured from the
// intended send time, so a stall is charged to every request it delays; a
// lane that is behind sends at once and its lateness is recorded. It
// returns after `requests` requests and reports the wall time they took.
func openLoop(lanes int, rate float64, requests int, step stepFunc) (tally, time.Duration) {
	tallies := make([]tally, lanes)
	p := make(pace, lanes)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	start := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			defer p.finish(l)
			t := &tallies[l]
			for i := l; i < requests; i += lanes {
				intended := start.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				p.wait(l)
				t.late = append(t.late, time.Since(intended))
				o := step(l)
				t.add(o)
				t.lat[o.series] = append(t.lat[o.series], time.Since(intended))
				p.done(l)
			}
		}(l)
	}
	wg.Wait()
	return mergeTallies(tallies), time.Since(start)
}

// tailLadder is the percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the reporting rule for a timing's tail: the highest
// percentile of the ladder with at least ten samples beyond it. 1 000
// samples support p99; 100 support p90; fewer than 20 support nothing.
func tailPercentile(n int) (pct float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if float64(n)*(100-tailLadder[i]) >= 1000-1e-6 { // n(1-p) >= 10, safe from rounding
			return tailLadder[i], true
		}
	}
	return 0, false
}

// percentile returns the value at pct of sorted (nearest-rank).
func percentile(sorted []time.Duration, pct float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

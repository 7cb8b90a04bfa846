package middleware

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ctxres/internal/ctx"
	"ctxres/internal/strategy"
)

// TestConcurrentSubmitUseAdvance hammers one middleware from many
// goroutines — submissions, uses, clock advances, and stats reads — while
// the parallel checker fans each consistency check out over its own worker
// pool. Run under `go test -race` (the Makefile's race target does) to
// prove the parallel evaluator shares snapshots without data races.
func TestConcurrentSubmitUseAdvance(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30
	)
	m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad(),
		WithCheckerOptions(CheckerOptions{Parallelism: 4}))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			subject := fmt.Sprintf("walker-%d", g)
			x := 0.0
			for i := 0; i < perG; i++ {
				x += 1
				if i%5 == 4 {
					x += 10 // corruption: velocity jump, guaranteed violations
				}
				at := t0.Add(time.Duration(i) * time.Second)
				c := ctx.NewLocation(subject, at, ctx.Point{X: x},
					ctx.WithID(ctx.ID(fmt.Sprintf("s%d-%03d", g, i))),
					ctx.WithSeq(uint64(i+1)), ctx.WithSource("stress"))
				if _, err := m.Submit(c); err != nil {
					t.Errorf("goroutine %d submit %d: %v", g, i, err)
					return
				}
				if i%3 == 0 {
					// Discarded/inconsistent/expired are legitimate
					// strategy outcomes under contention; only unknown
					// contexts would indicate lost submissions.
					if _, err := m.Use(c.ID); errors.Is(err, ErrNotFound) {
						t.Errorf("goroutine %d: submitted context %s vanished: %v", g, c.ID, err)
						return
					}
				}
				if i%7 == 0 {
					m.AdvanceTo(at)
				}
				if i%11 == 0 {
					_ = m.Stats()
					_ = m.Pool().Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := m.Stats()
	if st.Submitted != goroutines*perG {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, goroutines*perG)
	}
	if st.Shards == 0 {
		t.Fatal("parallel checker dispatched no shards")
	}
	if st.Detected == 0 {
		t.Fatal("no inconsistencies detected despite injected jumps")
	}
	// The pool's kind index must agree with the authoritative checking view.
	checking := m.Pool().Checking()
	indexed := m.Pool().CheckingUniverse().ContextsOfKind(ctx.KindLocation)
	if len(checking) != len(indexed) {
		t.Fatalf("kind index has %d location contexts, checking view has %d",
			len(indexed), len(checking))
	}
}

// TestParallelMiddlewareMatchesSerial replays the same deterministic stream
// through a serial and a parallel middleware and asserts identical stats
// and identical surviving pools — the end-to-end determinism guarantee.
func TestParallelMiddlewareMatchesSerial(t *testing.T) {
	run := func(parallelism int) (Stats, []ctx.ID) {
		m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad(),
			WithCheckerOptions(CheckerOptions{Parallelism: parallelism}))
		x := 0.0
		for i := 0; i < 40; i++ {
			x += 1
			if i%4 == 3 {
				x += 8
			}
			c := loc(fmt.Sprintf("m-%03d", i), uint64(i+1), x)
			if _, err := m.Submit(c); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if i%2 == 1 {
				_, _ = m.Use(c.ID)
			}
		}
		st := m.Stats()
		st.Shards, st.PrunedBindings = 0, 0 // bookkeeping differs by design
		var avail []ctx.ID
		for _, c := range m.Pool().Available() {
			avail = append(avail, c.ID)
		}
		return st, avail
	}

	serialStats, serialAvail := run(0)
	for _, par := range []int{2, 4, 8} {
		gotStats, gotAvail := run(par)
		if gotStats != serialStats {
			t.Fatalf("parallelism %d stats = %+v, serial %+v", par, gotStats, serialStats)
		}
		if len(gotAvail) != len(serialAvail) {
			t.Fatalf("parallelism %d available %v, serial %v", par, gotAvail, serialAvail)
		}
		for i := range gotAvail {
			if gotAvail[i] != serialAvail[i] {
				t.Fatalf("parallelism %d available %v, serial %v", par, gotAvail, serialAvail)
			}
		}
	}
}

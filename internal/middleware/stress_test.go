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
// goroutines — submissions, uses, clock advances, and stats reads. Run
// under `go test -race` (the Makefile's race target does) to prove the
// checker's pool snapshots and the serialized pipeline share no state
// unguarded.
func TestConcurrentSubmitUseAdvance(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30
	)
	m := New(velocityChecker(t, 2, 1.5), strategy.NewDropBad())

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

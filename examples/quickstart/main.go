// Quickstart: build a middleware with one consistency constraint and the
// drop-bad resolution strategy, replay the paper's Figure 1 scenario (five
// tracked locations, d3 corrupted), and watch drop-bad discard exactly the
// corrupted context.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/middleware"
	"ctxres/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A consistency constraint: Peter's walking velocity, estimated
	// from stream pairs up to two steps apart, must stay under 1.5 m/s
	// (150% of his nominal speed, per the paper's running example).
	checker := constraint.NewChecker()
	checker.MustRegister(&constraint.Constraint{
		Name: "velocity-limit",
		Doc:  "estimated walking velocity stays below 150% of nominal",
		Formula: constraint.Forall("a", ctx.KindLocation,
			constraint.Forall("b", ctx.KindLocation,
				constraint.Implies(
					constraint.And(
						constraint.SameSubject("a", "b"),
						constraint.StreamWithin("a", "b", 2),
					),
					constraint.VelocityBelow("a", "b", 1.5),
				))),
	})

	// 2. A middleware with the drop-bad strategy and a hook to watch
	// resolution decisions: each operation hands it its events in order.
	dropBad := strategy.NewDropBad()
	mw := middleware.New(checker, dropBad, middleware.WithHooks(func(evs []middleware.Event) {
		for _, e := range evs {
			switch e.Type {
			case middleware.EventDetect:
				fmt.Printf("  detected inconsistency %s\n", e.Violation)
			case middleware.EventDiscard:
				fmt.Printf("  discarded %s (%s)\n", e.Context.ID, e.Reason)
			}
		}
	}))

	// 3. The Figure 1 trace: Peter walks at 1 m/s, but the tracked
	// location d3 jumps 8 m off the path (a sensing error).
	start := time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)
	xs := []float64{0, 1, 9, 3, 4} // d3 = 9 deviates
	ids := make([]ctx.ID, len(xs))
	for i, x := range xs {
		c := ctx.NewLocation("peter", start.Add(time.Duration(i)*time.Second),
			ctx.Point{X: x},
			ctx.WithSeq(uint64(i+1)), ctx.WithSource("badge-tracker"))
		ids[i] = c.ID
		fmt.Printf("submit %s at x=%.0f\n", c.ID, x)
		if _, err := mw.Submit(c); err != nil {
			return err
		}
	}

	// 4. Drop-bad defers resolution until contexts are used. Count values
	// after the whole trace: d3 participates in four inconsistencies.
	fmt.Println("\ncount values before use:")
	for id, n := range dropBad.Tracker().Counts() {
		fmt.Printf("  %s: %d\n", id, n)
	}

	// 5. The application uses the contexts; drop-bad discards exactly the
	// context with the largest count value.
	fmt.Println("\napplication uses the contexts:")
	usable := 0
	for _, id := range ids {
		if c, err := mw.Use(id); err != nil {
			fmt.Printf("  use %s → rejected (%v)\n", id, err)
		} else {
			usable++
			p, _ := ctx.LocationPoint(c)
			fmt.Printf("  use %s → ok (x=%.0f)\n", id, p.X)
		}
	}
	fmt.Printf("\n%d of %d contexts delivered; stats: %+v\n",
		usable, len(ids), mw.Stats())
	return nil
}

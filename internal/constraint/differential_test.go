package constraint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctxres/internal/ctx"
)

// Differential test harness: generate random universes and random closed
// formulas, then assert Check and CheckAddition return byte-identical
// violations when the same contexts reach NewSliceUniverse in a shuffled
// order. The generator is shared with FuzzCheckOrderInvariance, which
// explores (seed, shuffle) pairs beyond the fixed sweep below.

var genKinds = []ctx.Kind{ctx.KindLocation, ctx.KindRFIDRead, ctx.Kind("diff.sensor")}

type genVar struct {
	name string
	kind ctx.Kind
}

// genUniverse builds a random universe of up to ~20 contexts, deliberately
// reusing timestamps and sequence numbers so chronological ordering falls
// through to the ID tie-break.
func genUniverse(rng *rand.Rand) (*SliceUniverse, []*ctx.Context) {
	n := 1 + rng.Intn(18)
	subjects := []string{"s1", "s2", "s3"}
	cs := make([]*ctx.Context, n)
	for i := range cs {
		cs[i] = ctx.New(genKinds[rng.Intn(len(genKinds))],
			t0.Add(time.Duration(rng.Intn(10))*time.Second), nil,
			ctx.WithID(ctx.ID(fmt.Sprintf("u%02d", i))),
			ctx.WithSeq(uint64(rng.Intn(6))),
			ctx.WithSubject(subjects[rng.Intn(len(subjects))]))
	}
	return NewSliceUniverse(cs), cs
}

// genPred picks a deterministic predicate over variables in scope.
func genPred(rng *rand.Rand, scope []genVar) Formula {
	v := func() string { return scope[rng.Intn(len(scope))].name }
	switch rng.Intn(4) {
	case 0:
		return Pred("seqEven", func(b []*ctx.Context) bool { return b[0].Seq%2 == 0 }, v())
	case 1:
		return Pred("before", func(b []*ctx.Context) bool {
			return b[0].Timestamp.Before(b[1].Timestamp)
		}, v(), v())
	case 2:
		return Pred("sameSubject", func(b []*ctx.Context) bool {
			return b[0].Subject == b[1].Subject
		}, v(), v())
	default:
		return Pred("idLess", func(b []*ctx.Context) bool { return b[0].ID < b[1].ID }, v(), v())
	}
}

// genFormula builds a random formula of bounded depth whose predicates only
// reference variables in scope; nextVar keeps quantified names unique so
// the result is closed and unshadowed (registrable).
func genFormula(rng *rand.Rand, depth int, scope []genVar, nextVar *int) Formula {
	if depth <= 0 {
		if len(scope) == 0 {
			if rng.Intn(2) == 0 {
				return True()
			}
			return False()
		}
		return genPred(rng, scope)
	}
	quantify := func(forall bool) Formula {
		name := fmt.Sprintf("v%d", *nextVar)
		*nextVar++
		kind := genKinds[rng.Intn(len(genKinds))]
		body := genFormula(rng, depth-1, append(scope, genVar{name, kind}), nextVar)
		if forall {
			return Forall(name, kind, body)
		}
		return Exists(name, kind, body)
	}
	switch rng.Intn(8) {
	case 0, 1:
		return quantify(true)
	case 2:
		return quantify(false)
	case 3:
		return And(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 4:
		return Or(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 5:
		return Implies(genFormula(rng, depth-1, scope, nextVar), genFormula(rng, depth-1, scope, nextVar))
	case 6:
		return Not(genFormula(rng, depth-1, scope, nextVar))
	default:
		if len(scope) == 0 {
			return quantify(true)
		}
		return genPred(rng, scope)
	}
}

// genConstraint builds a random closed constraint. Most roots are universal
// quantifiers (the shape incremental checking prunes); the rest exercise
// the full re-check fallback.
func genConstraint(rng *rand.Rand, name string) *Constraint {
	nextVar := 0
	var f Formula
	if rng.Intn(10) < 7 {
		v := fmt.Sprintf("v%d", nextVar)
		nextVar++
		kind := genKinds[rng.Intn(len(genKinds))]
		f = Forall(v, kind, genFormula(rng, 2+rng.Intn(2), []genVar{{v, kind}}, &nextVar))
	} else {
		f = genFormula(rng, 2+rng.Intn(2), nil, &nextVar)
	}
	return &Constraint{Name: name, Formula: f}
}

func genChecker(rng *rand.Rand) *Checker {
	ch := NewChecker()
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		ch.MustRegister(genConstraint(rng, fmt.Sprintf("c%d", i)))
	}
	return ch
}

// renderViolations flattens a violation list into comparable strings so
// mismatches report the exact position and content that diverged.
func renderViolations(vios []Violation) []string {
	out := make([]string, len(vios))
	for i, v := range vios {
		out[i] = v.String()
	}
	return out
}

func assertSameViolations(t *testing.T, label string, want, got []Violation) {
	t.Helper()
	w, g := renderViolations(want), renderViolations(got)
	if len(w) != len(g) {
		t.Fatalf("%s: in order %d violations %v, shuffled %d violations %v",
			label, len(w), w, len(g), g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: violation %d differs: in order %q, shuffled %q\nin order: %v\nshuffled: %v",
				label, i, w[i], g[i], w, g)
		}
	}
}

// checkDifferential runs one seed's invariance check: the universe built
// from the generated contexts and one built from a shuffled copy of them
// must yield identical violations, for full checks and addition checks.
func checkDifferential(t *testing.T, seed int64, shuffle int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u, cs := genUniverse(rng)
	ch := genChecker(rng)
	shuffled := append([]*ctx.Context(nil), cs...)
	perm := rand.New(rand.NewSource(seed*31 + int64(shuffle)))
	perm.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	su := NewSliceUniverse(shuffled)

	label := fmt.Sprintf("seed %d shuffle %d", seed, shuffle)
	assertSameViolations(t, label+" full", ch.Check(u), ch.Check(su))

	added := cs[rng.Intn(len(cs))]
	assertSameViolations(t, label+" addition",
		ch.CheckAddition(u, added), ch.CheckAddition(su, added))
}

// TestCheckOrderInvariance sweeps seeds 1..100 with eight shuffles each,
// asserting the checker's output does not depend on the order contexts
// reached the universe in.
func TestCheckOrderInvariance(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		for shuffle := 1; shuffle <= 8; shuffle++ {
			checkDifferential(t, seed, shuffle)
		}
	}
}

// TestDifferentialEmptyAndDegenerate pins the checker's edge cases: empty
// universes, empty checkers, nil additions and single-context domains.
func TestDifferentialEmptyAndDegenerate(t *testing.T) {
	empty := NewSliceUniverse(nil)
	ch := NewChecker()
	if got := ch.Check(empty); len(got) != 0 {
		t.Fatalf("empty checker found %v", got)
	}
	ch.MustRegister(velocityConstraint("vel", 1, 1.5))
	if got := ch.Check(empty); len(got) != 0 {
		t.Fatalf("empty universe found %v", got)
	}

	one := mkLoc(t, "only", 1, 0, 0)
	u := NewSliceUniverse([]*ctx.Context{one})
	if got := ch.Check(u); len(got) != 0 {
		t.Fatalf("one context found %v", got)
	}
	if got := ch.CheckAddition(u, one); len(got) != 0 {
		t.Fatalf("one context addition found %v", got)
	}

	if got := ch.CheckAddition(u, nil); got != nil {
		t.Fatalf("nil addition produced %v", got)
	}
}

// FuzzCheckOrderInvariance lets the fuzzer explore (seed, shuffle) pairs
// with the same generator the fixed sweep uses.
func FuzzCheckOrderInvariance(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(7), 4)
	f.Add(int64(101), 8)
	f.Fuzz(func(t *testing.T, seed int64, shuffle int) {
		checkDifferential(t, seed, shuffle)
	})
}

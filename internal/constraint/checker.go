package constraint

import (
	"errors"
	"fmt"
	"sort"

	"ctxres/internal/ctx"
)

// Constraint is a named consistency constraint over contexts. Constraints
// are assumed correct (Heuristic Rule 1 of the paper): a violation always
// signals a real context inconsistency, never a false report.
type Constraint struct {
	// Name identifies the constraint in violations and reports.
	Name string
	// Doc describes the requirement the constraint encodes.
	Doc string
	// Formula is the closed first-order formula to hold over the universe.
	Formula Formula
}

// Violation is one detected context inconsistency: a constraint and the
// link (set of contexts) that violates it.
type Violation struct {
	Constraint string
	Link       Link
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return v.Constraint + v.Link.String()
}

// Registration errors.
var (
	ErrNoName      = errors.New("constraint has empty name")
	ErrNilFormula  = errors.New("constraint has nil formula")
	ErrDupName     = errors.New("constraint name already registered")
	ErrFreeVar     = errors.New("constraint formula has free variables")
	ErrShadowedVar = errors.New("constraint formula shadows a quantified variable")
)

// Checker detects violations of a set of registered constraints against a
// universe of contexts. It supports full checking and the incremental mode
// of the authors' ICSE 2006 paper, which on a context-addition change only
// examines variable bindings involving the new context. Incremental mode is
// used automatically for constraints in the universal fragment; others fall
// back to a full check.
//
// Evaluation model: every check runs against an immutable snapshot of the
// universe (the pool copies its kind index under lock before handing it
// over), so evaluation never observes concurrent pool mutation and a
// check the middleware's watchdog abandons can finish harmlessly.
//
// Determinism guarantee: violations come back in one byte-identical order
// — constraints in registration order, and within a constraint links
// deduplicated and sorted by canonical link key — whatever order the
// contexts reached the universe in; the differential test harness
// (differential_test.go) pins this for random formulas.
//
// Registration (Register/MustRegister) is not safe for concurrent use with
// checking; the middleware registers constraints at start-up and serializes
// mutation.
type Checker struct {
	constraints []*Constraint
	byName      map[string]*Constraint
	kindsOf     map[string]map[ctx.Kind]bool
	universalOK map[string]bool
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{
		byName:      make(map[string]*Constraint),
		kindsOf:     make(map[string]map[ctx.Kind]bool),
		universalOK: make(map[string]bool),
	}
}

// Register adds a constraint after validating it: the name must be unique
// and non-empty, the formula non-nil and closed (every predicate variable
// bound by exactly one enclosing quantifier).
func (ch *Checker) Register(c *Constraint) error {
	if c == nil || c.Formula == nil {
		return ErrNilFormula
	}
	if c.Name == "" {
		return ErrNoName
	}
	if _, dup := ch.byName[c.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDupName, c.Name)
	}
	if err := checkClosed(c.Formula, map[string]bool{}); err != nil {
		return fmt.Errorf("constraint %q: %w", c.Name, err)
	}
	kinds := make(map[ctx.Kind]bool)
	c.Formula.collectKinds(kinds)
	ch.constraints = append(ch.constraints, c)
	ch.byName[c.Name] = c
	ch.kindsOf[c.Name] = kinds
	ch.universalOK[c.Name] = c.Formula.universal(false)
	return nil
}

// MustRegister registers the constraint and panics on error; intended for
// static constraint sets built at program start.
func (ch *Checker) MustRegister(c *Constraint) {
	if err := ch.Register(c); err != nil {
		panic(err)
	}
}

// Constraints returns the registered constraints in registration order.
func (ch *Checker) Constraints() []*Constraint {
	out := make([]*Constraint, len(ch.constraints))
	copy(out, ch.constraints)
	return out
}

// Relevant reports whether any registered constraint quantifies over the
// given kind. Contexts of irrelevant kinds bypass buffering entirely
// (Part 1 of the drop-bad resolution process, Figure 7).
func (ch *Checker) Relevant(kind ctx.Kind) bool {
	for _, kinds := range ch.kindsOf {
		if kinds[kind] {
			return true
		}
	}
	return false
}

// Check evaluates every constraint against the universe and returns all
// violations in a deterministic order.
func (ch *Checker) Check(u Universe) []Violation {
	var out []Violation
	for _, c := range ch.constraints {
		r := c.Formula.eval(u, Env{}, nil)
		if r.Satisfied {
			continue
		}
		out = append(out, violationsOf(c.Name, r.Links)...)
	}
	return out
}

// CheckAddition evaluates the constraints relevant to a newly added context
// and returns the violations the addition introduces. Universal-fragment
// constraints are checked incrementally (only bindings involving added);
// others are fully re-checked, and only violations whose link contains the
// added context are reported (pre-existing violations were reported when
// their own contexts arrived).
func (ch *Checker) CheckAddition(u Universe, added *ctx.Context) []Violation {
	if added == nil {
		return nil
	}
	var out []Violation
	for _, c := range ch.constraints {
		if !ch.kindsOf[c.Name][added.Kind] {
			continue
		}
		if ch.universalOK[c.Name] {
			r := c.Formula.eval(u, Env{}, added)
			if !r.Satisfied {
				out = append(out, violationsOf(c.Name, r.Links)...)
			}
			continue
		}
		r := c.Formula.eval(u, Env{}, nil)
		if r.Satisfied {
			continue
		}
		for _, l := range r.Links {
			if l.Contains(added.ID) {
				out = append(out, Violation{Constraint: c.Name, Link: l})
			}
		}
	}
	return out
}

func violationsOf(name string, links []Link) []Violation {
	links = dedupeLinks(links)
	sort.Slice(links, func(i, j int) bool { return links[i].Key() < links[j].Key() })
	out := make([]Violation, 0, len(links))
	for _, l := range links {
		if l.Len() == 0 {
			continue // empty explanatory link carries no discardable context
		}
		out = append(out, Violation{Constraint: name, Link: l})
	}
	return out
}

// checkClosed walks the formula ensuring every predicate variable is bound
// and no quantifier shadows another.
func checkClosed(f Formula, bound map[string]bool) error {
	switch n := f.(type) {
	case *predicate:
		for _, v := range n.vars {
			if !bound[v] {
				return fmt.Errorf("%w: %q in %s", ErrFreeVar, v, n)
			}
		}
		return nil
	case *not:
		return checkClosed(n.f, bound)
	case *and:
		for _, sub := range n.fs {
			if err := checkClosed(sub, bound); err != nil {
				return err
			}
		}
		return nil
	case *or:
		for _, sub := range n.fs {
			if err := checkClosed(sub, bound); err != nil {
				return err
			}
		}
		return nil
	case *implies:
		if err := checkClosed(n.lhs, bound); err != nil {
			return err
		}
		return checkClosed(n.rhs, bound)
	case *forall:
		return checkQuantified(n.varName, n.body, bound)
	case *exists:
		return checkQuantified(n.varName, n.body, bound)
	default:
		return fmt.Errorf("unknown formula node %T", f)
	}
}

func checkQuantified(varName string, body Formula, bound map[string]bool) error {
	if bound[varName] {
		return fmt.Errorf("%w: %q", ErrShadowedVar, varName)
	}
	bound[varName] = true
	defer delete(bound, varName)
	return checkClosed(body, bound)
}

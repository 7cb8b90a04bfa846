package constraint

import (
	"fmt"
	"strings"

	"ctxres/internal/ctx"
)

// Env is a variable-binding environment mapping quantified variable names
// to the contexts currently bound.
type Env map[string]*ctx.Context

func (e Env) clone() Env {
	out := make(Env, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Result is the outcome of evaluating a formula under an environment:
// whether it holds, and the links explaining that truth value. For a
// satisfied formula the links say which contexts made it true; for a
// violated formula, which contexts made it false.
type Result struct {
	Satisfied bool
	Links     []Link
}

func satisfied(links ...Link) Result { return Result{Satisfied: true, Links: links} }
func violated(links ...Link) Result  { return Result{Satisfied: false, Links: links} }

// Eval evaluates a closed formula against a universe, returning its truth
// value and explanatory links. It is the public entry point used by the
// situation engine and by callers outside the checker.
func Eval(f Formula, u Universe) Result {
	return f.eval(u, Env{}, nil)
}

// Formula is a node of the constraint language. Formulas are immutable and
// safe for concurrent evaluation.
type Formula interface {
	// eval computes the truth value and explanatory links under env,
	// quantifying over u. pivot, when non-nil, restricts quantifiers to
	// bindings that include the pivot context (incremental mode).
	eval(u Universe, env Env, pivot *ctx.Context) Result
	// collectKinds adds every context kind the formula quantifies over.
	collectKinds(kinds map[ctx.Kind]bool)
	// universal reports whether the formula is in the universal fragment
	// (no existential quantifier in positive position, no forall under
	// negation), for which incremental checking is sound.
	universal(negated bool) bool
	// String renders the formula for diagnostics.
	String() string
}

// PredicateFunc decides a predicate over the contexts bound to its
// variables, in declaration order.
type PredicateFunc func(bound []*ctx.Context) bool

type predicate struct {
	name string
	fn   PredicateFunc
	vars []string
	// sameSource marks predicates that can only hold when every bound
	// context carries the same Source (StreamAdjacent, StreamWithin).
	// SourceLocal uses it to prove a constraint never relates contexts
	// from different sources, which is what lets the cluster router check
	// it entirely on the shard owning that source.
	sameSource bool
}

// Pred builds an atomic predicate formula named name over the given
// variables. When the predicate is false, the violation link is exactly the
// set of bound contexts; when true, the satisfaction link likewise.
func Pred(name string, fn PredicateFunc, vars ...string) Formula {
	return &predicate{name: name, fn: fn, vars: vars}
}

func (p *predicate) eval(_ Universe, env Env, _ *ctx.Context) Result {
	bound := make([]*ctx.Context, len(p.vars))
	for i, v := range p.vars {
		c, ok := env[v]
		if !ok {
			// Unbound variable: treat as violated with an empty link. This
			// is a constraint-authoring error surfaced by Checker.Register.
			return violated(NewLink())
		}
		bound[i] = c
	}
	link := NewLink(bound...)
	if p.fn(bound) {
		return satisfied(link)
	}
	return violated(link)
}

func (p *predicate) collectKinds(map[ctx.Kind]bool) {}

func (p *predicate) universal(bool) bool { return true }

func (p *predicate) String() string {
	return p.name + "(" + strings.Join(p.vars, ", ") + ")"
}

type not struct{ f Formula }

// Not negates a formula; links are preserved (the same contexts explain the
// flipped truth value).
func Not(f Formula) Formula { return &not{f: f} }

func (n *not) eval(u Universe, env Env, pivot *ctx.Context) Result {
	r := n.f.eval(u, env, pivot)
	return Result{Satisfied: !r.Satisfied, Links: r.Links}
}

func (n *not) collectKinds(kinds map[ctx.Kind]bool) { n.f.collectKinds(kinds) }

func (n *not) universal(negated bool) bool { return n.f.universal(!negated) }

func (n *not) String() string { return "not " + n.f.String() }

type and struct{ fs []Formula }

// And conjoins formulas. Violated if any conjunct is violated (links are
// the union over violated conjuncts); satisfied links cross-combine.
func And(fs ...Formula) Formula { return &and{fs: fs} }

func (a *and) eval(u Universe, env Env, pivot *ctx.Context) Result {
	var sat, vio []Link
	allSat := true
	for _, f := range a.fs {
		r := f.eval(u, env, pivot)
		if r.Satisfied {
			sat = crossLinks(sat, r.Links)
		} else {
			allSat = false
			vio = append(vio, r.Links...)
		}
	}
	if allSat {
		return Result{Satisfied: true, Links: sat}
	}
	return Result{Satisfied: false, Links: dedupeLinks(vio)}
}

func (a *and) collectKinds(kinds map[ctx.Kind]bool) {
	for _, f := range a.fs {
		f.collectKinds(kinds)
	}
}

func (a *and) universal(negated bool) bool {
	for _, f := range a.fs {
		if !f.universal(negated) {
			return false
		}
	}
	return true
}

func (a *and) String() string { return joinFormulas("and", a.fs) }

type or struct{ fs []Formula }

// Or disjoins formulas. Satisfied if any disjunct is satisfied (links are
// the union over satisfied disjuncts); violation links cross-combine, since
// every disjunct contributes to the failure.
func Or(fs ...Formula) Formula { return &or{fs: fs} }

func (o *or) eval(u Universe, env Env, pivot *ctx.Context) Result {
	var sat, vio []Link
	anySat := false
	for _, f := range o.fs {
		r := f.eval(u, env, pivot)
		if r.Satisfied {
			anySat = true
			sat = append(sat, r.Links...)
		} else {
			vio = crossLinks(vio, r.Links)
		}
	}
	if anySat {
		return Result{Satisfied: true, Links: dedupeLinks(sat)}
	}
	return Result{Satisfied: false, Links: vio}
}

func (o *or) collectKinds(kinds map[ctx.Kind]bool) {
	for _, f := range o.fs {
		f.collectKinds(kinds)
	}
}

func (o *or) universal(negated bool) bool {
	for _, f := range o.fs {
		if !f.universal(negated) {
			return false
		}
	}
	return true
}

func (o *or) String() string { return joinFormulas("or", o.fs) }

type implies struct{ lhs, rhs Formula }

// Implies builds lhs → rhs. Violated exactly when lhs holds and rhs does
// not; the violation links combine the lhs satisfaction links with the rhs
// violation links, so the inconsistency names every contributing context.
func Implies(lhs, rhs Formula) Formula { return &implies{lhs: lhs, rhs: rhs} }

func (im *implies) eval(u Universe, env Env, pivot *ctx.Context) Result {
	l := im.lhs.eval(u, env, pivot)
	if !l.Satisfied {
		return Result{Satisfied: true, Links: l.Links}
	}
	r := im.rhs.eval(u, env, pivot)
	if r.Satisfied {
		return Result{Satisfied: true, Links: crossLinks(l.Links, r.Links)}
	}
	return Result{Satisfied: false, Links: crossLinks(l.Links, r.Links)}
}

func (im *implies) collectKinds(kinds map[ctx.Kind]bool) {
	im.lhs.collectKinds(kinds)
	im.rhs.collectKinds(kinds)
}

func (im *implies) universal(negated bool) bool {
	// lhs is in a negative position (¬lhs ∨ rhs).
	return im.lhs.universal(!negated) && im.rhs.universal(negated)
}

func (im *implies) String() string {
	return "(" + im.lhs.String() + " implies " + im.rhs.String() + ")"
}

type forall struct {
	varName string
	kind    ctx.Kind
	body    Formula
}

// Forall quantifies varName over all contexts of the given kind in the
// universe. Violated if any binding violates the body; the violation links
// are the union over violating bindings.
func Forall(varName string, kind ctx.Kind, body Formula) Formula {
	return &forall{varName: varName, kind: kind, body: body}
}

func (f *forall) eval(u Universe, env Env, pivot *ctx.Context) Result {
	var sat, vio []Link
	allSat := true
	// Incremental pruning: if a pivot is set and neither this binding nor
	// any enclosing binding nor any remaining quantifier can involve the
	// pivot, the binding was already checked before the pivot arrived —
	// skip it. Only "this binding" depends on the loop.
	covered := pivot == nil || envContains(env, pivot)
	below := !covered && quantifiesOverKind(f.body, pivot.Kind)
	for _, c := range u.ContextsOfKind(f.kind) {
		p := pivot
		if covered || c.ID == pivot.ID {
			p = nil // pivot covered; evaluate body unrestricted
		} else if !below {
			continue // binding cannot involve the pivot anywhere below
		}
		env2 := env.clone()
		env2[f.varName] = c
		r := f.body.eval(u, env2, p)
		if r.Satisfied {
			sat = append(sat, r.Links...)
		} else {
			allSat = false
			vio = append(vio, r.Links...)
		}
	}
	if allSat {
		return Result{Satisfied: true, Links: dedupeLinks(sat)}
	}
	return Result{Satisfied: false, Links: dedupeLinks(vio)}
}

func (f *forall) collectKinds(kinds map[ctx.Kind]bool) {
	kinds[f.kind] = true
	f.body.collectKinds(kinds)
}

func (f *forall) universal(negated bool) bool {
	if negated {
		return false // forall under negation is an exists
	}
	return f.body.universal(negated)
}

func (f *forall) String() string {
	return fmt.Sprintf("forall %s:%s . %s", f.varName, f.kind, f.body)
}

type exists struct {
	varName string
	kind    ctx.Kind
	body    Formula
}

// Exists quantifies varName over contexts of the given kind. Satisfied if
// any binding satisfies the body. When violated, the links are the union of
// per-binding violation links (an approximation of the full cross-product,
// which is exponential; documented in the package comment).
func Exists(varName string, kind ctx.Kind, body Formula) Formula {
	return &exists{varName: varName, kind: kind, body: body}
}

func (e *exists) eval(u Universe, env Env, pivot *ctx.Context) Result {
	domain := u.ContextsOfKind(e.kind)
	var sat, vio []Link
	anySat := false
	for _, c := range domain {
		env2 := env.clone()
		env2[e.varName] = c
		r := e.body.eval(u, env2, pivot)
		if r.Satisfied {
			anySat = true
			sat = append(sat, r.Links...)
		} else {
			vio = append(vio, r.Links...)
		}
	}
	if anySat {
		return Result{Satisfied: true, Links: dedupeLinks(sat)}
	}
	return Result{Satisfied: false, Links: dedupeLinks(vio)}
}

func (e *exists) collectKinds(kinds map[ctx.Kind]bool) {
	kinds[e.kind] = true
	e.body.collectKinds(kinds)
}

func (e *exists) universal(bool) bool { return false }

func (e *exists) String() string {
	return fmt.Sprintf("exists %s:%s . %s", e.varName, e.kind, e.body)
}

// True is a formula that always holds with an empty link.
func True() Formula {
	return Pred("true", func([]*ctx.Context) bool { return true })
}

// False is a formula that never holds, with an empty link.
func False() Formula {
	return Pred("false", func([]*ctx.Context) bool { return false })
}

func joinFormulas(op string, fs []Formula) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

func envContains(env Env, c *ctx.Context) bool {
	for _, b := range env {
		if b != nil && b.ID == c.ID {
			return true
		}
	}
	return false
}

// quantifiesOverKind reports whether any quantifier inside f ranges over
// the given kind (so a pivot of that kind could still be bound below).
func quantifiesOverKind(f Formula, kind ctx.Kind) bool {
	kinds := make(map[ctx.Kind]bool)
	f.collectKinds(kinds)
	return kinds[kind]
}

// FormulaKinds returns the set of context kinds the formula quantifies
// over. Consumers use it to index formulas by kind so pool deltas touch
// only the formulas that could change truth value.
func FormulaKinds(f Formula) map[ctx.Kind]bool {
	kinds := make(map[ctx.Kind]bool)
	if f != nil {
		f.collectKinds(kinds)
	}
	return kinds
}

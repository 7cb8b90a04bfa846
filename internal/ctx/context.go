package ctx

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// ID uniquely identifies a context instance within a run.
type ID string

// State is the life-cycle state of a context (Figure 8 of the paper).
type State int

// Life-cycle states. A context starts Undecided; if it is irrelevant to any
// consistency constraint it becomes Consistent immediately. Otherwise it is
// buffered until an application uses it, at which point the resolution
// strategy decides Consistent or Inconsistent. Bad marks a context that has
// already been judged incorrect (Case 2 of Section 3.3) but has not been
// used yet; it will become Inconsistent when used.
const (
	Undecided State = iota + 1
	Consistent
	Bad
	Inconsistent
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Undecided:
		return "undecided"
	case Consistent:
		return "consistent"
	case Bad:
		return "bad"
	case Inconsistent:
		return "inconsistent"
	default:
		return "invalid"
	}
}

// Terminal reports whether the state is a final decision.
func (s State) Terminal() bool { return s == Consistent || s == Inconsistent }

// StateFromString parses a state name as produced by State.String —
// the inverse used when restoring snapshotted life-cycle state.
func StateFromString(s string) (State, error) {
	switch s {
	case "undecided":
		return Undecided, nil
	case "consistent":
		return Consistent, nil
	case "bad":
		return Bad, nil
	case "inconsistent":
		return Inconsistent, nil
	default:
		return 0, fmt.Errorf("unknown context state %q", s)
	}
}

// Kind classifies contexts by the phenomenon they report, e.g. "location"
// or "rfid.read". Constraints quantify over kinds.
type Kind string

// Common kinds used by the bundled applications and simulators.
const (
	KindLocation Kind = "location"
	KindRFIDRead Kind = "rfid.read"
	KindPresence Kind = "presence"
	KindCall     Kind = "call"
)

// Validation errors returned by Context.Validate.
var (
	ErrNoID        = errors.New("context has empty id")
	ErrNoKind      = errors.New("context has empty kind")
	ErrNoTimestamp = errors.New("context has zero timestamp")
	ErrBadTTL      = errors.New("context has negative ttl")
	ErrNotUTF8     = errors.New("context text is not valid UTF-8")
)

// Context is one piece of environmental information. Fields hold the typed
// payload (e.g. x/y coordinates for a location). Contexts are immutable
// after construction except for their life-cycle state, which only the
// owning middleware mutates.
//
// Truth carries the ground-truth label used exclusively by the OPT-R oracle
// strategy and by the metrics collector; real resolution strategies must
// never consult it (the paper: "whether a particular context is corrupted
// or expected is unknown to any practical resolution strategy in advance").
type Context struct {
	ID        ID               `json:"id"`
	Kind      Kind             `json:"kind"`
	Source    string           `json:"source"`
	Subject   string           `json:"subject"`
	Timestamp time.Time        `json:"timestamp"`
	TTL       time.Duration    `json:"ttlNanos"`
	Fields    map[string]Value `json:"-"`
	Seq       uint64           `json:"seq"`

	// Truth is the experiment-only ground truth; see type comment.
	Truth Truth `json:"truth"`

	state State
}

// Truth records whether a context was corrupted by the error-injection
// model, and what the uncorrupted payload was.
type Truth struct {
	// Corrupted is true if the error model perturbed this context.
	Corrupted bool `json:"corrupted"`
	// Original holds the pre-corruption fields when Corrupted; nil otherwise.
	Original map[string]Value `json:"-"`
}

var idCounter atomic.Uint64

// NextID returns a fresh process-unique context ID with the given prefix.
func NextID(prefix string) ID {
	n := idCounter.Add(1)
	return ID(prefix + "-" + strconv.FormatUint(n, 10))
}

// Option configures a Context under construction.
type Option func(*Context)

// WithSource sets the producing source name.
func WithSource(source string) Option {
	return func(c *Context) { c.Source = source }
}

// WithSubject sets the entity the context is about (a person, a tag…).
func WithSubject(subject string) Option {
	return func(c *Context) { c.Subject = subject }
}

// WithTTL sets the available period after which the context expires.
func WithTTL(ttl time.Duration) Option {
	return func(c *Context) { c.TTL = ttl }
}

// WithID overrides the generated ID (tests and wire decoding).
func WithID(id ID) Option {
	return func(c *Context) { c.ID = id }
}

// WithSeq sets the source-local sequence number.
func WithSeq(seq uint64) Option {
	return func(c *Context) { c.Seq = seq }
}

// New builds an Undecided context of the given kind at the given logical
// time. The fields map is copied.
func New(kind Kind, at time.Time, fields map[string]Value, opts ...Option) *Context {
	c := &Context{
		ID:        NextID(string(kind)),
		Kind:      kind,
		Timestamp: at,
		Fields:    cloneFields(fields),
		state:     Undecided,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func cloneFields(fields map[string]Value) map[string]Value {
	if fields == nil {
		return map[string]Value{}
	}
	out := make(map[string]Value, len(fields))
	for k, v := range fields {
		out[k] = v
	}
	return out
}

// Validate checks structural invariants. Text must be valid UTF-8: JSON,
// on the wire and in the journal, replaces an invalid byte, so such a
// context would not survive a round trip.
func (c *Context) Validate() error {
	switch {
	case c.ID == "":
		return ErrNoID
	case c.Kind == "":
		return ErrNoKind
	case c.Timestamp.IsZero():
		return ErrNoTimestamp
	case c.TTL < 0:
		return ErrBadTTL
	}
	for _, t := range [...]struct{ name, s string }{
		{"id", string(c.ID)}, {"kind", string(c.Kind)}, {"source", c.Source}, {"subject", c.Subject},
	} {
		if !utf8.ValidString(t.s) {
			return fmt.Errorf("%w: %s %q", ErrNotUTF8, t.name, t.s)
		}
	}
	for k, v := range c.Fields {
		if !utf8.ValidString(k) || v.kind == KindString && !utf8.ValidString(v.str) {
			return fmt.Errorf("%w: field %q", ErrNotUTF8, k)
		}
	}
	return nil
}

// State returns the current life-cycle state.
func (c *Context) State() State { return c.state }

// SetState transitions the life cycle. Illegal transitions return an error:
// terminal states are frozen, and Bad may only become Inconsistent.
func (c *Context) SetState(s State) error {
	if s < Undecided || s > Inconsistent {
		return fmt.Errorf("set state: invalid state %d", int(s))
	}
	if c.state.Terminal() && s != c.state {
		return fmt.Errorf("set state: %s is terminal, cannot become %s", c.state, s)
	}
	if c.state == Bad && s != Inconsistent && s != Bad {
		return fmt.Errorf("set state: bad context may only become inconsistent, not %s", s)
	}
	c.state = s
	return nil
}

// Field returns the named field value; ok is false if absent.
func (c *Context) Field(name string) (Value, bool) {
	v, ok := c.Fields[name]
	return v, ok
}

// FloatField returns a numeric field, or ok=false if absent or non-numeric.
func (c *Context) FloatField(name string) (float64, bool) {
	v, ok := c.Fields[name]
	if !ok {
		return 0, false
	}
	return v.Float()
}

// StrField returns a string field, or ok=false if absent or non-string.
func (c *Context) StrField(name string) (string, bool) {
	v, ok := c.Fields[name]
	if !ok {
		return "", false
	}
	return v.Str()
}

// Expired reports whether the context's available period has passed at the
// given instant. A zero TTL means the context never expires.
func (c *Context) Expired(now time.Time) bool {
	if c.TTL == 0 {
		return false
	}
	return now.After(c.Timestamp.Add(c.TTL))
}

// Age returns how old the context is at the given instant.
func (c *Context) Age(now time.Time) time.Duration {
	return now.Sub(c.Timestamp)
}

// Clone returns a deep copy sharing no mutable state with the receiver.
func (c *Context) Clone() *Context {
	cp := *c
	cp.Fields = cloneFields(c.Fields)
	if c.Truth.Original != nil {
		cp.Truth.Original = cloneFields(c.Truth.Original)
	}
	return &cp
}

// String renders a compact human-readable form for logs and tests.
func (c *Context) String() string {
	var b strings.Builder
	b.WriteString(string(c.ID))
	b.WriteByte('[')
	b.WriteString(string(c.Kind))
	if c.Subject != "" {
		b.WriteByte('/')
		b.WriteString(c.Subject)
	}
	b.WriteByte(']')
	keys := make([]string, 0, len(c.Fields))
	for k := range c.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(c.Fields[k].String())
	}
	b.WriteByte('}')
	return b.String()
}

// ByTimestamp sorts contexts chronologically, breaking ties by Seq then ID
// so orderings are deterministic.
type ByTimestamp []*Context

func (s ByTimestamp) Len() int           { return len(s) }
func (s ByTimestamp) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s ByTimestamp) Less(i, j int) bool { return Earlier(s[i], s[j]) }

// Earlier reports whether a orders strictly before b in the chronological
// (ByTimestamp) order: timestamp, then Seq, then ID. The order is total, so
// any sequence of contexts has exactly one sorted arrangement — incremental
// index maintenance (insertion by Earlier) and batch sorting agree.
func Earlier(a, b *Context) bool {
	if !a.Timestamp.Equal(b.Timestamp) {
		return a.Timestamp.Before(b.Timestamp)
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.ID < b.ID
}

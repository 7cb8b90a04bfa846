package ctx

import (
	"errors"
	"sort"
	"testing"
	"time"
)

var t0 = time.Date(2008, 6, 17, 9, 0, 0, 0, time.UTC)

func TestNewDefaults(t *testing.T) {
	c := New(KindLocation, t0, map[string]Value{"x": Float(1)})
	if c.State() != Undecided {
		t.Fatalf("State() = %v, want undecided", c.State())
	}
	if c.ID == "" {
		t.Fatal("empty ID")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

func TestNewOptions(t *testing.T) {
	c := New(KindPresence, t0, nil,
		WithSource("sensor-1"),
		WithSubject("peter"),
		WithTTL(5*time.Second),
		WithID("fixed-1"),
		WithSeq(9),
	)
	if c.Source != "sensor-1" || c.Subject != "peter" || c.TTL != 5*time.Second ||
		c.ID != "fixed-1" || c.Seq != 9 {
		t.Fatalf("options not applied: %+v", c)
	}
}

func TestNewCopiesFields(t *testing.T) {
	fields := map[string]Value{"x": Float(1)}
	c := New(KindLocation, t0, fields)
	fields["x"] = Float(99)
	if v, _ := c.FloatField("x"); v != 1 {
		t.Fatalf("field mutated through caller map: %v", v)
	}
}

func TestNextIDUnique(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := NextID("t")
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Context)
		want   error
	}{
		{"no id", func(c *Context) { c.ID = "" }, ErrNoID},
		{"no kind", func(c *Context) { c.Kind = "" }, ErrNoKind},
		{"no timestamp", func(c *Context) { c.Timestamp = time.Time{} }, ErrNoTimestamp},
		{"bad ttl", func(c *Context) { c.TTL = -1 }, ErrBadTTL},
		{"non-utf8 id", func(c *Context) { c.ID = "\xca" }, ErrNotUTF8},
		{"non-utf8 kind", func(c *Context) { c.Kind = "\xca" }, ErrNotUTF8},
		{"non-utf8 source", func(c *Context) { c.Source = "s\xff" }, ErrNotUTF8},
		{"non-utf8 subject", func(c *Context) { c.Subject = "\xc3" }, ErrNotUTF8},
		{"non-utf8 field key", func(c *Context) { c.Fields = map[string]Value{"\xca": Int(1)} }, ErrNotUTF8},
		{"non-utf8 field value", func(c *Context) { c.Fields = map[string]Value{"x": String("\xca")} }, ErrNotUTF8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(KindLocation, t0, nil)
			tt.mutate(c)
			if err := c.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestStateTransitions(t *testing.T) {
	t.Run("undecided to consistent", func(t *testing.T) {
		c := New(KindLocation, t0, nil)
		if err := c.SetState(Consistent); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("undecided to bad to inconsistent", func(t *testing.T) {
		c := New(KindLocation, t0, nil)
		if err := c.SetState(Bad); err != nil {
			t.Fatal(err)
		}
		if err := c.SetState(Inconsistent); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("terminal frozen", func(t *testing.T) {
		c := New(KindLocation, t0, nil)
		if err := c.SetState(Consistent); err != nil {
			t.Fatal(err)
		}
		if err := c.SetState(Inconsistent); err == nil {
			t.Fatal("consistent → inconsistent allowed")
		}
		if err := c.SetState(Consistent); err != nil {
			t.Fatalf("idempotent terminal set rejected: %v", err)
		}
	})
	t.Run("bad cannot revert", func(t *testing.T) {
		c := New(KindLocation, t0, nil)
		if err := c.SetState(Bad); err != nil {
			t.Fatal(err)
		}
		if err := c.SetState(Consistent); err == nil {
			t.Fatal("bad → consistent allowed")
		}
	})
	t.Run("invalid state", func(t *testing.T) {
		c := New(KindLocation, t0, nil)
		if err := c.SetState(State(0)); err == nil {
			t.Fatal("SetState(0) allowed")
		}
		if err := c.SetState(State(99)); err == nil {
			t.Fatal("SetState(99) allowed")
		}
	})
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Undecided:    "undecided",
		Consistent:   "consistent",
		Bad:          "bad",
		Inconsistent: "inconsistent",
		State(0):     "invalid",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	if Undecided.Terminal() || Bad.Terminal() {
		t.Fatal("non-terminal state reported terminal")
	}
	if !Consistent.Terminal() || !Inconsistent.Terminal() {
		t.Fatal("terminal state reported non-terminal")
	}
}

func TestFieldAccessors(t *testing.T) {
	c := New(KindLocation, t0, map[string]Value{
		"x":    Float(3.5),
		"name": String("peter"),
	})
	if v, ok := c.Field("x"); !ok || !v.Equal(Float(3.5)) {
		t.Fatalf("Field(x) = %v, %v", v, ok)
	}
	if _, ok := c.Field("missing"); ok {
		t.Fatal("Field(missing) ok")
	}
	if f, ok := c.FloatField("x"); !ok || f != 3.5 {
		t.Fatalf("FloatField(x) = %v, %v", f, ok)
	}
	if _, ok := c.FloatField("name"); ok {
		t.Fatal("FloatField(name) ok")
	}
	if s, ok := c.StrField("name"); !ok || s != "peter" {
		t.Fatalf("StrField(name) = %q, %v", s, ok)
	}
	if _, ok := c.StrField("x"); ok {
		t.Fatal("StrField(x) ok")
	}
	if _, ok := c.StrField("missing"); ok {
		t.Fatal("StrField(missing) ok")
	}
}

func TestExpired(t *testing.T) {
	c := New(KindLocation, t0, nil, WithTTL(10*time.Second))
	if c.Expired(t0.Add(5 * time.Second)) {
		t.Fatal("expired before TTL")
	}
	if c.Expired(t0.Add(10 * time.Second)) {
		t.Fatal("expired exactly at TTL boundary")
	}
	if !c.Expired(t0.Add(11 * time.Second)) {
		t.Fatal("not expired after TTL")
	}
	eternal := New(KindLocation, t0, nil)
	if eternal.Expired(t0.Add(1000 * time.Hour)) {
		t.Fatal("zero-TTL context expired")
	}
}

func TestAge(t *testing.T) {
	c := New(KindLocation, t0, nil)
	if got := c.Age(t0.Add(3 * time.Second)); got != 3*time.Second {
		t.Fatalf("Age = %v", got)
	}
}

func TestClone(t *testing.T) {
	c := New(KindLocation, t0, map[string]Value{"x": Float(1)})
	c.Truth = Truth{Corrupted: true, Original: map[string]Value{"x": Float(2)}}
	cp := c.Clone()
	cp.Fields["x"] = Float(9)
	cp.Truth.Original["x"] = Float(8)
	if v, _ := c.FloatField("x"); v != 1 {
		t.Fatal("clone shares Fields")
	}
	if v := c.Truth.Original["x"]; !v.Equal(Float(2)) {
		t.Fatal("clone shares Truth.Original")
	}
	if cp.ID != c.ID || cp.Kind != c.Kind {
		t.Fatal("clone changed identity")
	}
}

func TestStringRendering(t *testing.T) {
	c := New(KindLocation, t0, map[string]Value{"y": Float(2), "x": Float(1)},
		WithSubject("peter"), WithID("loc-1"))
	want := `loc-1[location/peter]{x=1 y=2}`
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestByTimestampOrdering(t *testing.T) {
	a := New(KindLocation, t0.Add(2*time.Second), nil, WithID("a"))
	b := New(KindLocation, t0.Add(1*time.Second), nil, WithID("b"))
	c1 := New(KindLocation, t0, nil, WithID("c"), WithSeq(2))
	c2 := New(KindLocation, t0, nil, WithID("d"), WithSeq(1))
	e1 := New(KindLocation, t0, nil, WithID("e"), WithSeq(1))
	list := []*Context{a, b, c1, c2, e1}
	sort.Sort(ByTimestamp(list))
	got := []ID{list[0].ID, list[1].ID, list[2].ID, list[3].ID, list[4].ID}
	want := []ID{"d", "e", "c", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

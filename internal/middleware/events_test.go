package middleware

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/apps/rfidmon"
	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/simspace"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
)

// eventString renders every field an event carries, contexts by ID.
func eventString(e Event) string {
	var id ctx.ID
	if e.Context != nil {
		id = e.Context.ID
	}
	return fmt.Sprintf("%d %s %s %s %s %s %v %v %q %d", e.Type, e.Time.Format(time.RFC3339Nano), id,
		e.Violation, e.Reason, e.Situation, e.Checked, e.Err, e.Cause, e.N)
}

// TestRecoverReplaysEventStream records a seeded journaled run of each
// paper application, constraints and situations included, through the
// life-cycle hook, then recovers the journal into a fresh middleware with
// the same hook: the replayed events must equal the live ones, in order,
// while the delta hook stays silent during replay.
func TestRecoverReplaysEventStream(t *testing.T) {
	floor := simspace.OfficeFloor()
	apps := []struct {
		name    string
		checker func() *constraint.Checker
		engine  func() *situation.Engine
		steps   func(rng *rand.Rand) ([][]*ctx.Context, error)
	}{
		{"call-forwarding",
			func() *constraint.Checker { return callforward.Checker(floor) },
			func() *situation.Engine { return callforward.Engine(floor) },
			func(rng *rand.Rand) ([][]*ctx.Context, error) {
				cfg := callforward.DefaultWorkload(0.3)
				cfg.Steps = 60
				cs, err := callforward.Generate(cfg, rng)
				steps := make([][]*ctx.Context, len(cs))
				for i, c := range cs {
					steps[i] = []*ctx.Context{c}
				}
				return steps, err
			}},
		{"rfid", rfidmon.Checker, rfidmon.Engine,
			func(rng *rand.Rand) ([][]*ctx.Context, error) {
				cfg := rfidmon.DefaultWorkload(0.3)
				cfg.Cycles = 20
				return rfidmon.Generate(cfg, rng)
			}},
	}
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			steps, err := app.steps(rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			build := func(rec *[]string, deltas *int) *Middleware {
				m := New(app.checker(), strategy.NewDropBad(), WithSituations(app.engine()),
					WithHooks(func(evs []Event) {
						for _, e := range evs {
							*rec = append(*rec, eventString(e))
						}
					}))
				m.SetDeltaHook(func(Delta) { *deltas++ })
				return m
			}

			dir := t.TempDir()
			var live []string
			var liveDeltas int
			m := journaled(t, build(&live, &liveDeltas), openTestJournal(t, dir))
			for i, step := range steps {
				for _, c := range step {
					if _, err := m.Submit(c); err != nil {
						t.Fatal(err)
					}
				}
				if i >= 2 {
					for _, c := range steps[i-2] {
						_, _ = m.Use(c.ID)
					}
				}
			}
			m.AdvanceTo(m.Now().Add(time.Hour))
			if err := m.CloseJournal(); err != nil {
				t.Fatal(err)
			}

			var replayed []string
			var replayDeltas int
			if _, _, err := Recover(dir, func() *Middleware { return build(&replayed, &replayDeltas) }); err != nil {
				t.Fatal(err)
			}
			seen := map[EventType]bool{}
			for _, s := range live {
				var typ EventType
				fmt.Sscan(s, &typ)
				seen[typ] = true
			}
			for _, typ := range []EventType{EventAccept, EventDetect, EventUse, EventDiscard,
				EventDeliver, EventReject, EventExpire, EventBadMark, EventSituation, EventAdvance} {
				if !seen[typ] {
					t.Errorf("live run produced no event of type %d", typ)
				}
			}
			if liveDeltas == 0 || replayDeltas != 0 {
				t.Errorf("deltas: %d live, %d during replay; want some live and none replayed", liveDeltas, replayDeltas)
			}
			if len(replayed) != len(live) {
				t.Fatalf("replay produced %d events, live run %d", len(replayed), len(live))
			}
			for i := range live {
				if replayed[i] != live[i] {
					t.Fatalf("event %d differs:\nlive     %s\nreplayed %s", i, live[i], replayed[i])
				}
			}
		})
	}
}

// TestSubmitUseAllocs pins the allocations of the leanest round trip — an
// irrelevant-kind context submitted, then used, with no journal and no
// hooks — at the zero it measured before the event list existed: the list
// is reused, so it must add no per-operation garbage.
func TestSubmitUseAllocs(t *testing.T) {
	const runs = 200
	m := New(velocityChecker(t, 1, 1.5), strategy.NewDropBad())
	cs := make([]*ctx.Context, runs+1)
	for i := range cs {
		cs[i] = ctx.New(ctx.KindRFIDRead, t0.Add(time.Duration(i)*time.Second), nil,
			ctx.WithID(ctx.ID(fmt.Sprintf("r%d", i))), ctx.WithSource("reader"))
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		c := cs[i]
		i++
		if _, err := m.Submit(c); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Use(c.ID); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("submit+use allocates %v times per run, want 0", got)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span: a call the bench made, when, and which
// span caused it. Spans of one request share an op id.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
}

// tracer keeps spans in memory, one slice per lane so recording takes no
// lock, and writes them out when the run ends. A nil tracer records
// nothing: untraced runs call the same methods.
type tracer struct {
	t0    time.Time
	lanes [][]spanRec
	ids   atomic.Uint64
	// windows are the closed-loop phases, as [from, to) since t0.
	windows [][2]int64
}

func newTracer(lanes int) *tracer {
	return &tracer{t0: time.Now(), lanes: make([][]spanRec, lanes)}
}

// span runs fn inside a root span: a new op.
func (t *tracer) span(lane int, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.child(lane, name, 0, fn)
}

// child runs fn inside a span caused by parent (0 for a root, which starts
// a new op) and returns the span's id.
func (t *tracer) child(lane int, name string, parent uint64, fn func()) uint64 {
	if t == nil {
		fn()
		return 0
	}
	id := t.ids.Add(1)
	op := id
	if parent != 0 {
		op = t.opOf(lane, parent)
	}
	start := time.Since(t.t0)
	fn()
	t.lanes[lane] = append(t.lanes[lane], spanRec{
		Name: name, Start: int64(start), End: int64(time.Since(t.t0)), ID: id, Parent: parent, Op: op,
	})
	return id
}

// opOf finds the op of a span recorded on the same lane (parents are
// always recent: search from the end).
func (t *tracer) opOf(lane int, id uint64) uint64 {
	spans := t.lanes[lane]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].ID == id {
			return spans[i].Op
		}
	}
	return id
}

// durationsOf returns the durations of the spans with the given name.
func durationsOf(spans []spanRec, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// durations returns the durations of every recorded span with the given
// name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, lane := range t.lanes {
		out = append(out, durationsOf(lane, name)...)
	}
	return out
}

// closedDurations is durations restricted to spans that started inside a
// closed-loop phase.
func (t *tracer) closedDurations(name string) []time.Duration {
	var out []time.Duration
	for _, lane := range t.lanes {
		for _, s := range lane {
			if s.Name != name {
				continue
			}
			for _, w := range t.windows {
				if s.Start >= w[0] && s.Start < w[1] {
					out = append(out, time.Duration(s.End-s.Start))
					break
				}
			}
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, lane := range t.lanes {
		for i := range lane {
			if err := enc.Encode(&lane[i]); err != nil {
				_ = f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one timed segment of the middleware pipeline. The stages of
// a submission are check (consistency checking), resolve (the strategy's
// discard decision plus its application), and journal_append (WAL
// persistence of the operation's records); a use shares resolve and
// journal_append. Each stage is exported as an observation on the
// ctxres_stage_seconds{stage=...} histogram and, when a span sink is
// installed, as a timing on the operation's span.
type Stage string

// Pipeline stages.
const (
	StageCheck   Stage = "check"
	StageResolve Stage = "resolve"
	StageJournal Stage = "journal_append"
)

// StageTiming is one timed stage inside a span.
type StageTiming struct {
	Stage   Stage   `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// Span is the timed record of one operation: wall-clock start, total
// duration, per-stage breakdown, and the outcome the operation reached
// (accepted, discarded, delivered, rejected, error, ...). Spans are the
// trace-grained complement to the histograms: same stages, per-operation
// resolution, written as JSON lines.
//
// When the operation belongs to a sampled distributed trace, TraceID
// (128-bit, 32 hex chars) names the trace, SpanID (64-bit, 16 hex chars)
// names this span, and ParentID links it to the span that caused it —
// possibly on another node (the router's fan-out call, the leader's
// submit span under a follower's replication apply). All three are empty
// on untraced operations, so span logs written without tracing are
// byte-identical to the pre-tracing format.
type Span struct {
	Op       string        `json:"op"`
	ID       string        `json:"id,omitempty"`
	Outcome  string        `json:"outcome,omitempty"`
	TraceID  string        `json:"trace_id,omitempty"`
	SpanID   string        `json:"span_id,omitempty"`
	ParentID string        `json:"parent_id,omitempty"`
	Start    time.Time     `json:"start"`
	Seconds  float64       `json:"seconds"`
	Stages   []StageTiming `json:"stages,omitempty"`
	// Resolution carries the provenance of the constraint resolution this
	// span performed, when it performed one (the first violation's event;
	// the full set lives in the ProvenanceRing).
	Resolution *ResolutionEvent `json:"resolution,omitempty"`
}

// AddStage appends a stage timing. Safe on a nil span (spans are nil when
// no sink is installed, so instrumentation calls this unconditionally).
func (s *Span) AddStage(stage Stage, d time.Duration) {
	if s == nil {
		return
	}
	s.Stages = append(s.Stages, StageTiming{Stage: stage, Seconds: d.Seconds()})
}

// Ctx returns the trace context a span hands to its children: same
// trace, this span as parent. Zero on a nil or untraced span.
func (s *Span) Ctx() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use; RecordSpan is called synchronously from the middleware
// pipeline and must be fast.
type SpanSink interface {
	RecordSpan(*Span)
}

// spanQueueLen bounds the SpanWriter's in-flight queue. At the default
// span size (~200 bytes) a full queue holds well under 1 MiB.
const spanQueueLen = 1024

// spanMsg is one unit of SpanWriter work: a span to encode, or a flush
// request to acknowledge (quit additionally stops the writer goroutine).
type spanMsg struct {
	span  *Span
	flush chan error
	quit  bool
}

// SpanWriter is a SpanSink that appends spans as JSON lines (one object
// per line, the framing shared with internal/trace and ctxwal dump).
//
// RecordSpan never blocks the pipeline on file I/O: spans are handed to a
// background writer goroutine over a bounded queue, and a span arriving
// while the queue is full is dropped and counted (Drops, exported by the
// daemon as ctxres_spans_dropped_total) rather than serializing
// operations behind the disk. A write failure is sticky: later spans are
// dropped and Flush (and Close) report the first error.
type SpanWriter struct {
	ch    chan spanMsg
	drops atomic.Uint64

	// Owned by the writer goroutine; err is read by others only through a
	// flush acknowledgment.
	bw  *bufio.Writer
	enc *json.Encoder
	err error

	closeOnce sync.Once
	done      chan struct{}
}

// NewSpanWriter wraps the destination and starts the background writer.
func NewSpanWriter(w io.Writer) *SpanWriter {
	bw := bufio.NewWriter(w)
	sw := &SpanWriter{
		ch:   make(chan spanMsg, spanQueueLen),
		bw:   bw,
		enc:  json.NewEncoder(bw),
		done: make(chan struct{}),
	}
	go sw.loop()
	return sw
}

func (w *SpanWriter) loop() {
	for msg := range w.ch {
		if msg.flush != nil {
			if w.err == nil {
				w.err = w.bw.Flush()
			}
			msg.flush <- w.err
			if msg.quit {
				close(w.done)
				return
			}
			continue
		}
		if w.err != nil {
			w.drops.Add(1)
			continue
		}
		w.err = w.enc.Encode(msg.span)
	}
}

// RecordSpan enqueues one span line without blocking; a full queue drops
// the span. Spans recorded after Close are dropped (counted).
func (w *SpanWriter) RecordSpan(s *Span) {
	select {
	case <-w.done:
		w.drops.Add(1)
		return
	default:
	}
	select {
	case w.ch <- spanMsg{span: s}:
	default:
		w.drops.Add(1)
	}
}

// Drops returns the number of spans dropped because the queue was full
// or the writer had already failed or closed.
func (w *SpanWriter) Drops() uint64 { return w.drops.Load() }

// Flush drains every span enqueued before the call, flushes the buffered
// lines, and returns the sticky write error, if any. The queue is FIFO,
// so the flush request is processed only after all prior spans.
func (w *SpanWriter) Flush() error {
	ack := make(chan error, 1)
	select {
	case w.ch <- spanMsg{flush: ack}:
		select {
		case err := <-ack:
			return err
		case <-w.done:
			return w.err // loop exited; err is stable
		}
	case <-w.done:
		return w.err
	}
}

// Close drains every pending span, flushes, stops the writer goroutine,
// and returns the sticky error. Later RecordSpan calls drop (counted).
func (w *SpanWriter) Close() error {
	w.closeOnce.Do(func() {
		ack := make(chan error, 1)
		w.ch <- spanMsg{flush: ack, quit: true}
		<-ack
	})
	<-w.done
	return w.err
}

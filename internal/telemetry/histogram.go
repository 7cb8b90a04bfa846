package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram. Buckets are defined by
// their upper bounds in seconds; a final implicit +Inf bucket catches the
// tail. Observations are one atomic add plus a binary search over the
// bounds — no locks, no allocation. Safe on a nil receiver. The
// observation count is the sum of the buckets: a reader that wants count
// and buckets to agree derives one from the other in a single pass.
//
// The default bucket scheme (DefaultTimeBuckets) is logarithmic, doubling
// from 1µs to ~16.8s (26 buckets including +Inf): latency distributions
// span orders of magnitude, and log buckets keep the relative
// quantile-estimation error bounded (a value in the [b, 2b) bucket is
// known within a factor of 2, interpolated to much better in practice)
// while p50/p90/p99/max stay derivable from counts alone.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, seconds
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the observation sum
	maxBits atomic.Uint64 // float64 bits of the largest observation

	// exemplars holds, per bucket, the most recent trace-linked
	// observation; nil pointers until the first one arrives. Only
	// ObserveExemplar writes here, so the untraced observation path is
	// untouched.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a concrete trace: the last
// sampled observation that landed in the bucket and the trace it
// belonged to. Exposed on /metrics in OpenMetrics exemplar syntax so a
// p99 bucket resolves to a trace ID an operator can pull up with
// ctxspan.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	h.exemplars = make([]atomic.Pointer[Exemplar], len(bounds)+1)
	return h
}

var defaultTimeBuckets = func() []float64 {
	out := make([]float64, 0, 25)
	for b := 1e-6; b < 20; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// DefaultTimeBuckets returns the default latency bucket bounds in
// seconds: 1µs doubling up to ~16.8s.
func DefaultTimeBuckets() []float64 { return defaultTimeBuckets }

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// ObserveExemplar records one value and, when traceID is non-empty,
// attaches it as the bucket's exemplar. An empty traceID is exactly
// Observe — the untraced path allocates nothing.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveDurationExemplar records a duration with a trace exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	h.ObserveExemplar(d.Seconds(), traceID)
}

// HistogramSummary is a JSON-friendly digest of a histogram: count, sum,
// max (tracked exactly), and quantiles interpolated from the buckets.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary digests the histogram. The quantiles are estimated by linear
// interpolation inside the bucket containing the target rank; values in
// the +Inf bucket report the tracked max.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSummary{
		Count: total,
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = quantile(h.bounds, counts, total, s.Max, 0.50)
	s.P90 = quantile(h.bounds, counts, total, s.Max, 0.90)
	s.P99 = quantile(h.bounds, counts, total, s.Max, 0.99)
	return s
}

// quantile interpolates the q-th quantile from per-bucket counts. rank is
// 1-based over the sorted observations; within the located bucket the
// value is interpolated linearly between the bucket's lower and upper
// bound (lower bound 0 for the first bucket, max for the +Inf bucket).
func quantile(bounds []float64, counts []uint64, total uint64, max float64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(bounds) {
			return max // +Inf bucket
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		v := lo + (hi-lo)*frac
		if max > 0 && v > max {
			v = max
		}
		return v
	}
	return max
}

package daemon

import "ctxres/internal/telemetry"

// WithTelemetry exports the daemon's serving-path metrics into reg:
// a per-op request latency histogram, an in-flight gauge, failed
// responses by error code, scrape-time mirrors of the transport counters
// (accepted connections, retries, bad requests, ...), and gauges over
// the middleware's pool and strategy buffer. The same registry snapshot
// is attached to OpStats responses, so clients can read histogram
// summaries over the line protocol without scraping /metrics.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.telemetry = reg }
}

// WithTracing enables distributed tracing on the serving path: the
// server acks hello trace offers, honors TraceID/SpanID on requests
// (passing them into the middleware so pipeline spans join the caller's
// trace), and roots a fresh trace for untraced requests the sampler
// elects. The sink should be the same one the middleware records spans
// to; a nil sampler never roots (the server then only joins traces
// started upstream, the shard-behind-a-router configuration). A nil sink
// disables tracing entirely.
func WithTracing(sink telemetry.SpanSink, sampler *telemetry.Sampler) Option {
	return func(o *options) { o.spanSink = sink; o.sampler = sampler }
}

// WithProvenance serves the resolution-provenance ring over OpProvenance.
// The ring should be the one installed on the middleware via
// middleware.WithProvenance; nil leaves the op refused.
func WithProvenance(ring *telemetry.ProvenanceRing) Option {
	return func(o *options) { o.prov = ring }
}

// registerTelemetry installs the middleware role's instruments next to
// the loop's: the push-latency histogram and scrape-time mirrors of the
// push and maintenance counters, the subscription count, and gauges over
// the middleware's pool and strategy buffer.
func (s *Server) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.pushes = reg.Histogram("ctxres_push_seconds",
		"Push delivery latency from event enqueue to frame written.", nil)
	c := &s.counters
	mirrorCounter(reg, "ctxres_maintenance_errors_total", "Failed periodic checkpoints and compactions.", &c.maintErrors)
	mirrorCounter(reg, "ctxres_pushes_delivered_total", "Situation event frames pushed to subscribers.", &c.pushesDelivered)
	mirrorCounter(reg, "ctxres_pushes_dropped_total", "Situation events lost to slow-consumer shedding.", &c.pushesDropped)
	mirrorCounter(reg, "ctxres_subscribers_shed_total", "Subscriber connections shed as lagged.", &c.subscribersShed)
	reg.GaugeFunc("ctxres_subscribers", "Currently registered situation subscriptions.",
		func() float64 { return float64(s.hub.size()) })
	reg.GaugeFunc("ctxres_pool_contexts", "Contexts held in the repository pool (any state).",
		func() float64 { return float64(s.mw.Pool().Len()) })
	reg.GaugeFunc("ctxres_sigma_size", "Tracked inconsistency set size (Σ) of the resolution strategy.",
		func() float64 { return float64(s.mw.SigmaSize()) })
}

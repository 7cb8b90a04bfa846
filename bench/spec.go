package main

import "ctxres/internal/telemetry"

// metricDef names one reported number. BENCHMARK.json repeats these tables;
// a unit test keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening, as a share of the base median; 0 for per-layer metrics
}

// endToEnd is what a user of the middleware sees on every workload: the
// metrics a driver holds later changes to. The four timings carry the
// widest bound a driver accepts: over ten seeds they spread (quartile
// distance over median) 0.01 to 0.22 on a quiet reference sandbox and up
// to 0.41 in its slow hours, which no run can reject; see baseline/ and
// README.md, "Repeatability record".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"submit_p50_ms", "ms", "lower", 0.25},
	{"use_p50_ms", "ms", "lower", 0.25},
	{"openloop_achieved_ratio", "ratio", "higher", 0.02},
	{"heap_mb", "MiB", "lower", 0.10},
}

// The issue lists six more metrics as end-to-end that a driver cannot hold
// every workload to. They are measured in the same untraced runs, reported
// under a layer's name, and compared by -compare on the workloads that
// produce them (README.md, "Metrics"): singles are produced by one workload
// only and are held to their bounds; tails get a verdict that does not
// fail the comparison, because they do not repeat from run to run (two
// sets of three runs of one commit differ by a quarter); failed_ratio, which is
// 0, is added by -compare with an absolute bound.
var (
	singles = []metricDef{
		{"daemon.push_p50_ms", "ms", "lower", 0.25},
		{"wal.recover_s", "s", "lower", 0.25},
		{"wal.bytes_per_ctx", "B", "lower", 0.02},
	}
	tails = []metricDef{
		{"daemon.submit_p99_ms", "ms", "lower", 0.25},
		{"daemon.use_p99_ms", "ms", "lower", 0.25},
	}
)

// reported is every metric an untraced run prints, in order.
func reported() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), tails...), singles...)
}

// perLayer is one row per number a single package contributes; the layer
// is the name's prefix. A metric a workload does not exercise reads 0
// there, which is itself the claim "this layer does no work here".
var perLayer = []metricDef{
	{"ctx.encode_us", "us", "lower", 0},
	{"ctx.decode_us", "us", "lower", 0},
	{"ctx.encoded_bytes", "B", "lower", 0},

	{"daemon.ping_rtt_us", "us", "lower", 0},
	{"daemon.request_submit_us", "us", "lower", 0},
	{"daemon.request_use_us", "us", "lower", 0},
	{"daemon.wire_self_us", "us", "lower", 0},
	{"daemon.batch_items_per_request", "count", "higher", 0},
	{"daemon.push_flush_us", "us", "lower", 0},
	{"daemon.shed_total", "count", "lower", 0},
	{"daemon.push_p50_ms", "ms", "lower", 0},
	{"daemon.submit_p99_ms", "ms", "lower", 0},
	{"daemon.use_p99_ms", "ms", "lower", 0},

	{"cluster.router_hop_us", "us", "lower", 0},
	{"cluster.routed_total", "count", "higher", 0},
	{"cluster.scattered_total", "count", "lower", 0},
	{"cluster.shard_skew_ratio", "ratio", "lower", 0},
	{"cluster.repl_lag_records_p50", "count", "lower", 0},
	{"cluster.repl_lag_records_max", "count", "lower", 0},
	{"cluster.repl_feed_overflows", "count", "lower", 0},

	{"middleware.submit_us", "us", "lower", 0},
	{"middleware.use_us", "us", "lower", 0},
	{"middleware.self_us", "us", "lower", 0},
	{"middleware.conn_scaling_ratio", "ratio", "higher", 0},
	{"middleware.discard_ratio", "ratio", "lower", 0},
	{"middleware.compact_ms_p50", "ms", "lower", 0},
	{"middleware.compact_ms_max", "ms", "lower", 0},

	{"pool.resident", "count", "lower", 0},
	{"pool.checking", "count", "lower", 0},
	{"pool.add_us", "us", "lower", 0},
	{"pool.sweep_us", "us", "lower", 0},
	{"pool.universe_us", "us", "lower", 0},
	{"pool.available_by_subject_us", "us", "lower", 0},
	{"pool.available_by_kind_us", "us", "lower", 0},
	{"pool.compact_us", "us", "lower", 0},
	{"pool.snapshot_ms", "ms", "lower", 0},
	{"pool.bytes_per_resident", "B", "lower", 0},

	{"constraint.check_addition_us_p50", "us", "lower", 0},
	{"constraint.check_addition_us_p99", "us", "lower", 0},
	{"constraint.bindings_per_check", "count", "lower", 0},
	{"constraint.stage_check_us", "us", "lower", 0},
	{"constraint.violations_per_1k", "count", "lower", 0},
	{"constraint.check_alloc_bytes", "B", "lower", 0},

	{"strategy.on_addition_us", "us", "lower", 0},
	{"strategy.on_use_us", "us", "lower", 0},
	{"strategy.stage_resolve_us", "us", "lower", 0},
	{"strategy.sigma_size_p50", "count", "lower", 0},
	{"strategy.discards_total", "count", "lower", 0},
	{"strategy.bad_marks_total", "count", "lower", 0},

	{"situation.evaluate_us", "us", "lower", 0},
	{"situation.events_total", "count", "higher", 0},

	{"wal.append_us", "us", "lower", 0},
	{"wal.commit_wait_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs_per_1k_ctx", "count", "lower", 0},
	{"wal.records_per_ctx", "count", "lower", 0},
	{"wal.bytes_per_record", "B", "lower", 0},
	{"wal.load_ms_per_10k_records", "ms", "lower", 0},
	{"wal.replay_us_per_record", "us", "lower", 0},
	{"wal.snapshot_write_ms", "ms", "lower", 0},
	{"wal.rotations", "count", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"wal.bytes_per_ctx", "B", "lower", 0},

	{"telemetry.trace_overhead_ratio", "ratio", "higher", 0},

	{"go-runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"go-runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"go-runtime.gc_cycles", "count", "lower", 0},
	{"go-runtime.goroutines_max", "count", "lower", 0},

	{"bench.openloop_lateness_p99_ms", "ms", "lower", 0},
	{"bench.unaccounted_ratio", "ratio", "lower", 0},
	{"bench.samples", "count", "higher", 0},
}

// runSeconds is the measured length of one run, BENCHMARK.json's
// run_seconds: the closed-loop and open-loop phases are sized to take this
// long together on the reference sandbox.
const runSeconds = 14

// closedShare is the part of a run's measured seconds given to the
// closed-loop phase; the rest goes to the open-loop phase, which needs the
// samples for its p99.
const closedShare = 0.35

// compactEvery is how many acknowledged contexts pass between the bench's
// Middleware.Compact calls. Count-triggered, so the number of compactions
// and the resident pool they leave repeat from run to run.
const compactEvery = 1000

// workloadSpec is one workload's frozen shape. The rates are absolute:
// closedOpsPerSec sizes the fixed closed-loop op budget (budget =
// closedOpsPerSec × closed seconds) and openRate is the open-loop request
// rate. Both were set once from the seed's measured closed-loop throughput
// on the reference sandbox (2 cores) and do not follow the machine. The two
// journaled workloads are given a budget of about 1.4 times their
// throughput: two lanes' group commits fall in and out of step for seconds
// at a time, and their closed phase needs 7 s rather than 5 to average
// that out.
type workloadSpec struct {
	Name string
	Why  string // BENCHMARK.json's one-line reason

	closedOpsPerSec float64 // application ops per second of closed-loop budget
	openRate        float64 // open-loop requests per second; 0 = no arrival process
	setupReps       int     // set-ups per run; setup_s is their median
	submitTail      float64 // percentile submit_p99_ms can rest on at full scale, when not 99
	mix             opMix   // what one application op consists of, for the layer budget

	new func(cfg runConfig) workload
}

// workload is one system under test plus the stream that drives it.
type workload interface {
	// setup builds the system, dials it and preloads it; timed as setup_s.
	setup() error
	// step sends lane's next request and waits for the reply.
	step(lane int) outcome
	// probeEnvs hands the layer probes of a traced run the workload's
	// state, after the measured phases: one environment per kind of stream.
	probeEnvs() []probeEnv
	// finish stops the system and runs the workload's correctness checks
	// and teardown measurements into r.
	finish(r *result)
	// close releases everything; safe after a failed setup.
	close()
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64 // measured seconds, already scaled
	scale   float64 // also scales the preload
	lanes   int     // client goroutines and connections: nproc
	tmpDir  string  // scratch directory for journals, inside -out

	// Set on the traced half of a traced run only.
	trace *tracer             // records the bench's calls as spans
	reg   *telemetry.Registry // attached to every middleware, journal and server
}

func (c runConfig) traced() bool { return c.trace != nil }

// residentPool is how many contexts the large-pool workloads preload.
const residentPool = 10000

// preload is residentPool at the run's scale, at least 100.
func (c runConfig) preload() int {
	n := int(residentPool * c.scale)
	if n < 100 {
		n = 100
	}
	if n > residentPool {
		n = residentPool
	}
	return n
}

var workloads = []*workloadSpec{
	{
		Name:            "paper-replay",
		Why:             "in-process Figure 9/10 replays: constraint, strategy and situation do the work; wire, WAL, cluster and pool size must not show",
		closedOpsPerSec: 8000, setupReps: 25,
		mix: opMix{submits: 0.5, uses: 0.5, evals: 0.25},
		new: newPaperReplay,
	},
	{
		Name:            "durable-single",
		Why:             "TCP submit/use 1:1 on an fsync-always group-commit WAL with a tiny pool: commit wait, framing and syscalls dominate; then recovery of that WAL",
		closedOpsPerSec: 5000, openRate: 1600, setupReps: 25,
		mix: opMix{submits: 0.5, uses: 0.5, requests: 1, hops: 1},
		new: newDurableSingle,
	},
	{
		Name:            "routed-batch",
		Why:             "router to 2 durable shards (one replicated), binary frames, batches of 16: four codec passes per context and the only run of internal/cluster",
		closedOpsPerSec: 8000, openRate: 320, setupReps: 25,
		mix: opMix{submits: 16.0 / 17, latests: 1.0 / 17, requests: 2.0 / 17, hops: 2},
		new: newRoutedBatch,
	},
	{
		Name:            "large-pool-ingest",
		Why:             "TCP submit/use 1:1 beside 10k resident contexts, no WAL: whole-pool walks (sweep, checking) dominate, so pool indexing shows here only",
		closedOpsPerSec: 1350, openRate: 600, setupReps: 3,
		mix: opMix{submits: 0.5, uses: 0.5, requests: 1, hops: 1},
		new: newLargePool,
	},
	{
		Name:            "read-push",
		Why:             "same 10k pool, 8 use-latest : 1 submit : 1 use with 4 pushed subscriptions: reads and pushes beside writes, so an index that taxes them shows",
		closedOpsPerSec: 285, openRate: 135, setupReps: 3, submitTail: 90,
		mix: opMix{submits: 0.1, uses: 0.1, latests: 0.8, requests: 1, hops: 1, evals: 0.1},
		new: newReadPush,
	},
}

func specByName(name string) *workloadSpec {
	for _, s := range workloads {
		if s.Name == name {
			return s
		}
	}
	return nil
}

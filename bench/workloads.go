package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctxres/internal/apps/callforward"
	"ctxres/internal/cluster"
	"ctxres/internal/constraint"
	"ctxres/internal/ctx"
	"ctxres/internal/daemon"
	"ctxres/internal/middleware"
	"ctxres/internal/simspace"
	"ctxres/internal/situation"
	"ctxres/internal/strategy"
	"ctxres/internal/wal"
)

// useDelay is how many of its own submits later a lane uses a context: the
// paper's time window of two steps, which is what gives drop-bad counts to
// compare.
const useDelay = 2

// daemonRun is what the four daemon workloads share: the nodes, one client
// per lane, the acknowledged-context count that triggers compaction, and
// the registry and samplers of a traced run.
type daemonRun struct {
	cfg      runConfig
	nodes    []*node
	clients  []*daemon.Client
	acked    atomic.Int64 // contexts acknowledged over the wire
	requests atomic.Int64 // submit requests acknowledged
	loaded   int          // contexts preloaded during set-up

	mu        sync.Mutex
	compactMs []float64
	sigma     []float64 // sampled Σ sizes (traced runs)
	stopWatch func()
}

// ack counts one acknowledged submit request of n contexts, and compacts
// every node's pool each time the context count passes a multiple of
// compactEvery. The lane that crosses the line pays for the compaction, as
// a daemon's own maintenance tick would make some request pay.
func (d *daemonRun) ack(n int) {
	d.requests.Add(1)
	after := d.acked.Add(int64(n))
	if after/compactEvery == (after-int64(n))/compactEvery {
		return
	}
	for _, nd := range d.nodes {
		start := time.Now()
		_, _ = nd.mw.Compact() // a failed journal fails the next request, which is counted
		took := ms(time.Since(start))
		d.mu.Lock()
		d.compactMs = append(d.compactMs, took)
		d.mu.Unlock()
	}
}

// every20ms runs fn every 20 ms on its own goroutine until the returned
// stop function is called; stop waits for the goroutine to end.
func every20ms(fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// watchSigma samples the strategies' tracked inconsistency sets on traced
// runs.
func (d *daemonRun) watchSigma() {
	if !d.cfg.traced() {
		return
	}
	d.stopWatch = every20ms(func() {
		n := 0
		for _, nd := range d.nodes {
			n += nd.mw.SigmaSize()
		}
		d.mu.Lock()
		d.sigma = append(d.sigma, float64(n))
		d.mu.Unlock()
	})
}

func (d *daemonRun) close() {
	if d.stopWatch != nil {
		d.stopWatch()
		d.stopWatch = nil
	}
	closeClients(d.clients)
	d.clients = nil
	for _, nd := range d.nodes {
		_ = nd.stop()
	}
	d.nodes = nil
}

// quiesce ends the measured part of a run: it times a few pings while the
// clients are still connected (traced runs), closes them, stops the
// servers — the middlewares stay readable — and reads the books.
func (d *daemonRun) quiesce(r *result) {
	if d.cfg.traced() && len(d.clients) > 0 {
		for i := 0; i < 200; i++ {
			d.cfg.trace.span(0, "client.ping", func() { _ = d.clients[0].Ping() })
		}
		r.layer["daemon.ping_rtt_us"] = us(percentile(sortDurations(d.cfg.trace.durations("client.ping")), 50))
	}
	if d.stopWatch != nil {
		d.stopWatch()
		d.stopWatch = nil
	}
	closeClients(d.clients)
	d.clients = nil
	var shed int64
	for _, nd := range d.nodes {
		res := nd.mw.Resilience()
		shed += res.OverloadShed + res.DeadlineShed + nd.srv.Stats().RejectedFull
		nd.srv.Shutdown()
	}
	r.layer["daemon.shed_total"] = float64(shed)
	d.reconcile(r)
	d.bookLayers(r)
}

// reconcile checks the middlewares' own books against the bench's: every
// acknowledged context was counted as submitted, and every submitted
// context is delivered, discarded, expired or still buffered.
func (d *daemonRun) reconcile(r *result) {
	var st middleware.Stats
	buffered := 0
	for _, nd := range d.nodes {
		s := nd.mw.Stats()
		st.Submitted += s.Submitted
		st.Delivered += s.Delivered
		st.Discarded += s.Discarded
		st.Expired += s.Expired
		st.Detected += s.Detected
		buffered += nd.mw.Pool().Stats().Checking
	}
	acked := int(d.acked.Load()) + d.loaded
	r.check("acked=submitted", st.Submitted == acked,
		fmt.Sprintf("acknowledged %d, middleware submitted %d", acked, st.Submitted))
	sum := st.Delivered + st.Discarded + st.Expired + buffered
	r.check("stats-reconcile", st.Submitted == sum,
		fmt.Sprintf("submitted %d != delivered %d + discarded %d + expired %d + buffered %d",
			st.Submitted, st.Delivered, st.Discarded, st.Expired, buffered))
	r.stats = st
}

// bookLayers fills the per-layer metrics that come from counters rather
// than timers, and on traced runs the ones from the registry.
func (d *daemonRun) bookLayers(r *result) {
	st := r.stats
	if st.Submitted > 0 {
		r.layer["middleware.discard_ratio"] = float64(st.Discarded) / float64(st.Submitted)
		r.layer["constraint.violations_per_1k"] = float64(st.Detected) / float64(st.Submitted) * 1000
	}
	r.layer["strategy.discards_total"] = float64(st.Discarded)
	marks := 0
	var js wal.Stats
	journaled := false
	for _, nd := range d.nodes {
		if db, ok := nd.mw.Strategy().(*strategy.DropBad); ok {
			marks += db.Stats().MarkedBad
		}
		if s := nd.mw.JournalStats(); s != nil {
			journaled = true
			js.Records += s.Records
			js.Bytes += s.Bytes
			js.Fsyncs += s.Fsyncs
			js.Rotations += s.Rotations
		}
	}
	r.layer["strategy.bad_marks_total"] = float64(marks)
	d.mu.Lock()
	r.layer["middleware.compact_ms_p50"] = median(d.compactMs)
	for _, v := range d.compactMs {
		r.layer["middleware.compact_ms_max"] = math.Max(r.layer["middleware.compact_ms_max"], v)
	}
	r.layer["strategy.sigma_size_p50"] = median(d.sigma)
	d.mu.Unlock()
	acked := float64(d.acked.Load())
	if n := d.requests.Load(); n > 0 {
		r.layer["daemon.batch_items_per_request"] = acked / float64(n)
	}
	if journaled && js.Records > 0 && acked > 0 {
		r.layer["wal.records_per_ctx"] = float64(js.Records) / acked
		r.layer["wal.bytes_per_record"] = float64(js.Bytes) / float64(js.Records)
		r.layer["wal.fsyncs_per_1k_ctx"] = float64(js.Fsyncs) / acked * 1000
		r.layer["wal.rotations"] = float64(js.Rotations)
	}
	if d.cfg.traced() {
		registryLayers(r, journaled)
	}
}

// checkResident holds the pool to the flat band the workload promises:
// the preload plus at most an available period and one compaction interval.
func (d *daemonRun) checkResident(r *result) {
	n := d.nodes[0].mw.Pool().Len()
	lo, hi := d.loaded, d.loaded+compactEvery+1000
	r.check("resident-band", n >= lo && n <= hi, fmt.Sprintf("resident %d outside [%d, %d]", n, lo, hi))
}

// useFailed classifies a use reply. Drop-bad discarding the context — at
// use time ("inconsistent"), earlier ("discarded"), or before a compaction
// dropped the entry ("not-found") — is the system working, not failing.
func useFailed(err error) bool {
	if err == nil {
		return false
	}
	var remote *daemon.RemoteError
	if !errors.As(err, &remote) {
		return true
	}
	if remote.Code == daemon.CodeNotFound {
		return false
	}
	return remote.Code != daemon.CodeApp ||
		!(strings.Contains(remote.Message, middleware.ErrDiscarded.Error()) ||
			strings.Contains(remote.Message, middleware.ErrInconsistent.Error()))
}

func failedIf(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pairLane is one lane of a submit/use 1:1 stream: after priming, every
// submit is followed by the use of the context submitted useDelay submits
// earlier.
type pairLane struct {
	st        *stream
	pend      []ctx.ID
	submitted bool                 // the previous request was a submit
	onSubmit  func(c *ctx.Context) // called just before a submit is sent; may be nil
}

func (d *daemonRun) pairStep(lane int, l *pairLane) outcome {
	cl := d.clients[lane]
	if l.submitted && len(l.pend) > useDelay {
		id := l.pend[0]
		l.pend = l.pend[1:]
		l.submitted = false
		var err error
		d.cfg.trace.span(lane, "client.use", func() { _, err = cl.Use(id) })
		return outcome{series: seriesUse, ops: 1, failed: failedIf(useFailed(err))}
	}
	c := l.st.next()
	l.submitted = true
	if l.onSubmit != nil {
		l.onSubmit(c)
	}
	var err error
	d.cfg.trace.span(lane, "client.submit", func() { _, err = cl.Submit(c) })
	if err != nil {
		return outcome{series: seriesSubmit, ops: 1, failed: 1}
	}
	l.pend = append(l.pend, c.ID)
	d.ack(1)
	return outcome{series: seriesSubmit, ops: 1}
}

// pairLanes builds one pairLane per client lane over the given subjects.
func (d *daemonRun) pairLanes(subjects []string, ttlSlots float64) []pairLane {
	lanes := make([]pairLane, d.cfg.lanes)
	for i, st := range newStreams(d.cfg.seed, d.cfg.lanes, subjects, ttlSlots, errorRate) {
		lanes[i].st = st
	}
	return lanes
}

func callForwardingEngine() *situation.Engine { return callforward.Engine(simspace.OfficeFloor()) }

// ---- durable-single ----

type durableSingle struct {
	daemonRun
	lanes []pairLane
	dir   string
}

func newDurableSingle(cfg runConfig) workload {
	w := &durableSingle{dir: filepath.Join(cfg.tmpDir, "durable-single")}
	w.cfg = cfg
	return w
}

func (w *durableSingle) nodeConfig() nodeConfig {
	return nodeConfig{checker: callForwardingChecker, walDir: w.dir, reg: w.cfg.reg}
}

func (w *durableSingle) setup() error {
	nd, err := startNode(w.nodeConfig())
	if err != nil {
		return err
	}
	w.nodes = []*node{nd}
	if w.clients, err = dialLanes(nd.addr(), daemon.FormatJSON, w.cfg.lanes); err != nil {
		return err
	}
	// Four subjects and a use delay of two keep about eight contexts in
	// the checking buffer; 256 slots of available period keep the resident
	// pool between a few hundred and compactEvery + a few hundred.
	w.lanes = w.pairLanes(subjectNames("sub", 4), 256)
	w.watchSigma()
	return nil
}

func (w *durableSingle) step(lane int) outcome { return w.pairStep(lane, &w.lanes[lane]) }

func (w *durableSingle) probeEnvs() []probeEnv {
	return []probeEnv{{pool: w.nodes[0].mw.Pool(), checker: callForwardingChecker(),
		situations: callForwardingEngine(), next: w.lanes[0].st.next}}
}

func (w *durableSingle) finish(r *result) {
	w.quiesce(r)
	nd := w.nodes[0]
	live, err := nd.mw.Fingerprint()
	r.check("fingerprint", err == nil, errString(err))
	jstats := nd.mw.JournalStats()
	r.check("close-journal", nd.mw.CloseJournal() == nil, "CloseJournal failed")
	measureRecovery(r, w.dir, w.nodeConfig(), live, w.acked.Load(), jstats)
}

// ---- large-pool-ingest ----

type largePool struct {
	daemonRun
	lanes []pairLane
}

func newLargePool(cfg runConfig) workload {
	w := &largePool{}
	w.cfg = cfg
	return w
}

// preloadPool submits and uses n resident contexts directly on the
// middleware (set-up is not the wire's measurement) so they sit in the
// available view, out of the checking buffer, for the whole run.
func preloadPool(mw *middleware.Middleware, seed int64, n int) error {
	for _, c := range preloadContexts(seed, n) {
		if _, err := mw.Submit(c); err != nil {
			return fmt.Errorf("preload submit %s: %w", c.ID, err)
		}
		if _, err := mw.Use(c.ID); err != nil {
			return fmt.Errorf("preload use %s: %w", c.ID, err)
		}
	}
	return nil
}

func (d *daemonRun) setupLargePool() error {
	nd, err := startNode(nodeConfig{checker: unaryChecker, reg: d.cfg.reg})
	if err != nil {
		return err
	}
	d.nodes = []*node{nd}
	d.loaded = d.cfg.preload()
	if err := preloadPool(nd.mw, d.cfg.seed, d.loaded); err != nil {
		return err
	}
	d.clients, err = dialLanes(nd.addr(), daemon.FormatJSON, d.cfg.lanes)
	d.watchSigma()
	return err
}

func (w *largePool) setup() error {
	if err := w.setupLargePool(); err != nil {
		return err
	}
	w.lanes = w.pairLanes(subjectNames("sub", 64), 256)
	return nil
}

func (w *largePool) step(lane int) outcome { return w.pairStep(lane, &w.lanes[lane]) }

func (w *largePool) probeEnvs() []probeEnv {
	return []probeEnv{{pool: w.nodes[0].mw.Pool(), checker: unaryChecker(),
		situations: callForwardingEngine(), next: w.lanes[0].st.next}}
}

func (w *largePool) finish(r *result) {
	w.quiesce(r)
	w.checkResident(r)
}

// ---- read-push ----

// pushGroups is the number of pushed subscriptions. Each one is a whole
// scan of the location view on every submit (about 3.5 ms at 10k resident
// on the reference sandbox), so sixteen would leave a run with two dozen
// submits to time; four leave enough.
const pushGroups = 4

// readPush is read-dominant: lane 0 is the only writer (submit and use of
// short-lived contexts, plus reads to fill its share), every other lane
// only reads, so that over all lanes the mix is 8 use-latest : 1 submit :
// 1 use. A single writer also means a single logical clock, which the
// short available periods of the pushed contexts need.
type readPush struct {
	daemonRun
	writer   pairLane
	cycle    int // writer's position in its request cycle
	reads    int // reads per writer cycle
	names    [pushGroups]string
	groupOf  map[string]int
	rngs     []*rand.Rand
	resident []string // resident subjects, the use-latest targets

	subClient *daemon.Client
	sentAt    [pushGroups]atomic.Int64 // wall time the group's latest submit was sent
	pushMu    sync.Mutex
	pushLat   []time.Duration
	events    [pushGroups][]string
}

func newReadPush(cfg runConfig) workload {
	w := &readPush{}
	w.cfg = cfg
	return w
}

// readsPerCycle: with L lanes sending equally often, a writer cycle of r
// reads and 2 writes beside L-1 lanes of r+2 reads makes the overall mix
// 8:1:1 when r = (10-2L)/L: three reads for the reference two lanes, eight
// for a writer on its own.
func readsPerCycle(lanes int) int {
	r := int(math.Round(float64(10-2*lanes) / float64(lanes)))
	if r < 0 {
		return 0
	}
	return r
}

// setSolo switches the writer to the mix of a single lane, for the
// single-connection throughput of traced runs.
func (w *readPush) setSolo(solo bool) {
	w.reads = readsPerCycle(w.cfg.lanes)
	if solo {
		w.reads = readsPerCycle(1)
	}
	w.cycle = 0
}

func (w *readPush) setup() error {
	if err := w.setupLargePool(); err != nil {
		return err
	}
	w.resident = subjectNames("res", (w.loaded+9)/10)
	w.rngs = make([]*rand.Rand, w.cfg.lanes)
	for i := range w.rngs {
		w.rngs[i] = rand.New(rand.NewSource(w.cfg.seed*1000003 + 500 + int64(i)))
	}
	w.setSolo(false)
	// One subject per subscription. A subject comes round every four
	// submits, is used after two and lives for two and a half, so the next
	// submit after its use sweeps it and every activation is followed by a
	// deactivation before the subject returns. One writer makes that order
	// certain.
	w.groupOf = make(map[string]int, pushGroups)
	for g := range w.names {
		w.names[g] = fmt.Sprintf("push%02d", g)
		w.groupOf[w.names[g]] = g
	}
	w.writer.st = newStreams(w.cfg.seed, 1, w.names[:], 2.5, 0)[0]
	w.writer.onSubmit = func(c *ctx.Context) {
		w.sentAt[w.groupOf[c.Subject]].Store(time.Now().UnixNano())
	}

	var err error
	if w.subClient, err = dial(w.nodes[0].addr(), daemon.FormatJSON); err != nil {
		return err
	}
	for g := range w.names {
		g := g
		formula := fmt.Sprintf("exists a: location . subjectIs(a, %q)", w.names[g])
		err := w.subClient.SubscribeFormula(fmt.Sprintf("g%02d", g), formula,
			func(_ string, ev daemon.WireEvent) { w.onPush(g, ev, time.Now()) })
		if err != nil {
			return fmt.Errorf("subscribe group %d: %w", g, err)
		}
	}
	return nil
}

func (w *readPush) onPush(g int, ev daemon.WireEvent, at time.Time) {
	w.pushMu.Lock()
	defer w.pushMu.Unlock()
	w.events[g] = append(w.events[g], ev.Type)
	if ev.Type == "activated" {
		w.pushLat = append(w.pushLat, at.Sub(time.Unix(0, w.sentAt[g].Load())))
	}
}

func (w *readPush) step(lane int) outcome {
	if lane == 0 {
		pos := w.cycle
		w.cycle = (w.cycle + 1) % (w.reads + 2)
		if pos >= w.reads {
			return w.pairStep(0, &w.writer)
		}
	}
	subject := w.resident[w.rngs[lane].Intn(len(w.resident))]
	var err error
	w.cfg.trace.span(lane, "client.use-latest", func() {
		_, err = w.clients[lane].UseLatest(ctx.KindLocation, subject)
	})
	return outcome{series: seriesUse, ops: 1, failed: failedIf(err != nil)}
}

func (w *readPush) probeEnvs() []probeEnv {
	engine := situation.NewEngine()
	for _, name := range w.names {
		engine.MustRegister(&situation.Situation{Name: name,
			Formula: constraint.Exists("a", ctx.KindLocation, constraint.SubjectIs("a", name))})
	}
	return []probeEnv{{pool: w.nodes[0].mw.Pool(), checker: unaryChecker(),
		situations: engine, next: w.writer.st.next}}
}

func (w *readPush) finish(r *result) {
	// Let the last pushes drain before the connection goes away.
	time.Sleep(100 * time.Millisecond)
	srvStats := w.nodes[0].srv.Stats()
	_ = w.subClient.Close()
	w.quiesce(r)
	w.checkResident(r)

	w.pushMu.Lock()
	defer w.pushMu.Unlock()
	for g := range w.events {
		ok := len(w.events[g]) > 0
		for i, typ := range w.events[g] {
			if want := [2]string{"activated", "deactivated"}[i%2]; typ != want {
				ok = false
			}
		}
		r.check(fmt.Sprintf("push-alternates-g%02d", g), ok,
			fmt.Sprintf("group %d pushed %d events that do not strictly alternate from activated", g, len(w.events[g])))
	}
	r.check("no-subscriber-shed", srvStats.SubscribersShed == 0 && srvStats.PushesDropped == 0,
		fmt.Sprintf("%d subscribers shed, %d pushes dropped", srvStats.SubscribersShed, srvStats.PushesDropped))
	lat := sortDurations(w.pushLat)
	r.set("daemon.push_p50_ms", ms(percentile(lat, 50)), len(lat))
	r.layer["situation.events_total"] = float64(srvStats.PushesDelivered)
}

func (w *readPush) close() {
	if w.subClient != nil {
		_ = w.subClient.Close()
	}
	w.daemonRun.close()
}

// ---- routed-batch ----

const (
	batchSize     = 16
	routedSources = 256
)

type routedBatch struct {
	daemonRun
	router   *cluster.Router
	follower *cluster.Follower
	streams  []*stream
	last     [][]string // per lane: the subjects of the batch just acknowledged
	turn     []int      // per lane: use-latest requests sent
	newest   []string   // subjects of lane 0's newest acknowledged batch
	reads    atomic.Int64
	dirs     [3]string
	// blindSkew is how unevenly the ring would have split sources named
	// without looking (cluster.shard_skew_ratio).
	blindSkew float64
	lagMu     sync.Mutex
	lag       []float64
	stopLag   func()
}

func newRoutedBatch(cfg runConfig) workload {
	w := &routedBatch{}
	w.cfg = cfg
	for i, name := range []string{"shard0", "shard1", "replica0"} {
		w.dirs[i] = filepath.Join(cfg.tmpDir, "routed-batch", name)
	}
	return w
}

func (w *routedBatch) setup() error {
	for i := 0; i < 2; i++ {
		nd, err := startNode(nodeConfig{checker: unaryChecker, walDir: w.dirs[i], ship: i == 0, reg: w.cfg.reg})
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, nd)
	}
	var err error
	w.follower, err = cluster.StartFollower(cluster.FollowerOptions{
		Leader: w.nodes[0].addr(),
		Dir:    w.dirs[2],
		// A replica syncing every record would fall behind a leader that
		// group-commits; the interval policy is what a replica would run.
		Fsync: wal.FsyncIntervalPolicy,
	})
	if err != nil {
		return err
	}
	w.stopLag = every20ms(func() {
		records, _ := w.follower.Lag()
		w.lagMu.Lock()
		w.lag = append(w.lag, float64(records))
		w.lagMu.Unlock()
	})
	replica, err := freeAddr()
	if err != nil {
		return err
	}
	w.router, err = cluster.ServeRouter("127.0.0.1:0", cluster.RouterOptions{
		Shards:    []string{w.nodes[0].addr() + "|" + replica, w.nodes[1].addr()},
		Checker:   unaryChecker(),
		Timeout:   clientTimeout,
		Telemetry: w.cfg.reg,
	})
	if err != nil {
		return err
	}
	if w.clients, err = dialLanes(w.router.Addr().String(), daemon.FormatBinary, w.cfg.lanes); err != nil {
		return err
	}
	// Clean streams: a use-latest that drop-bad refuses would make the
	// router probe the other shard, and this workload is the routed path.
	// Fifteen of sixteen contexts are never used and leave the checking
	// buffer only by expiring, so the available period is what sizes it:
	// 128 slots keep about sixty per shard, and the lanes' bounded skew
	// (maxSkew) keeps a lane's batch from expiring before its use-latest.
	subjects, skew, err := balancedSources(w.nodes[0].addr(), w.nodes[1].addr())
	if err != nil {
		return err
	}
	w.blindSkew = skew
	w.streams = newStreams(w.cfg.seed, w.cfg.lanes, subjects, 128, 0)
	w.last = make([][]string, w.cfg.lanes)
	w.turn = make([]int, w.cfg.lanes)
	w.watchSigma()
	return nil
}

// balancedSources picks routedSources subjects of which the router's ring
// gives each shard half, in pairs of one shard's then the other's. The ring
// hashes shard addresses and source names, so names taken blindly split
// anywhere between 1:1 and 1:2 from one pair of ephemeral addresses to the
// next, and a routed batch waits for its larger half. blindSkew is that
// split for this run's addresses: the larger over the smaller share of the
// first routedSources names.
func balancedSources(shard0, shard1 string) (subjects []string, blindSkew float64, err error) {
	ring, err := cluster.NewRing([]string{shard0, shard1}, 0)
	if err != nil {
		return nil, 0, err
	}
	var owned [2][]string
	var blind [2]float64
	for i := 0; len(owned[0]) < routedSources/2 || len(owned[1]) < routedSources/2; i++ {
		name := fmt.Sprintf("src%04d", i)
		s := 0
		if ring.Owner(sourceOf(name)) == shard1 {
			s = 1
		}
		if i < routedSources {
			blind[s]++
		}
		if len(owned[s]) < routedSources/2 {
			owned[s] = append(owned[s], name)
		}
	}
	subjects = make([]string, 0, routedSources)
	for i := 0; i < routedSources/2; i += 2 {
		subjects = append(subjects, owned[0][i], owned[0][i+1], owned[1][i], owned[1][i+1])
	}
	return subjects, math.Max(blind[0], blind[1]) / math.Max(1, math.Min(blind[0], blind[1])), nil
}

func (w *routedBatch) step(lane int) outcome {
	cl := w.clients[lane]
	if batch := w.last[lane]; batch != nil {
		w.last[lane] = nil
		w.turn[lane]++
		subject := batch[w.turn[lane]%batchSize] // a different one each time, so both shards serve reads
		var err error
		w.cfg.trace.span(lane, "client.use-latest", func() {
			_, err = cl.UseLatest(ctx.KindLocation, subject)
		})
		if err == nil {
			w.reads.Add(1)
		}
		return outcome{series: seriesUse, ops: 1, failed: failedIf(err != nil)}
	}
	cs := make([]*ctx.Context, batchSize)
	subjects := make([]string, batchSize)
	for i := range cs {
		cs[i] = w.streams[lane].next()
		subjects[i] = cs[i].Subject
	}
	var results []daemon.BatchResult
	var err error
	w.cfg.trace.span(lane, "client.batch-submit", func() { results, err = cl.SubmitBatch(cs, 0) })
	if err != nil || len(results) != len(cs) {
		return outcome{series: seriesSubmit, ops: batchSize, failed: batchSize}
	}
	failed := 0
	for _, res := range results {
		if !res.OK {
			failed++
		}
	}
	w.last[lane] = subjects
	if lane == 0 {
		w.newest = subjects
	}
	w.ack(batchSize - failed)
	return outcome{series: seriesSubmit, ops: batchSize, failed: failed}
}

func (w *routedBatch) probeEnvs() []probeEnv {
	return []probeEnv{{pool: w.nodes[0].mw.Pool(), checker: unaryChecker(),
		situations: callForwardingEngine(), next: w.streams[0].next}}
}

// measureHop times the same use-latest requests through the router and
// straight at the shard that owns them; the difference of the medians is
// what the router's hop costs. Use-latest of an already used context is a
// free re-read, so a request can be repeated as it is.
func (w *routedBatch) measureHop(r *result) {
	addrs := []string{w.nodes[0].addr(), w.nodes[1].addr()}
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		r.check("hop-probe", false, err.Error())
		return
	}
	direct := map[string]*daemon.Client{}
	for _, a := range addrs {
		cl, err := dial(a, daemon.FormatBinary)
		if err != nil {
			r.check("hop-probe", false, err.Error())
			return
		}
		defer cl.Close()
		direct[a] = cl
	}
	failed := 0
	for i := 0; i < 200; i++ {
		subject := w.newest[i%len(w.newest)]
		var err1, err2 error
		w.cfg.trace.span(0, "client.use-latest.routed", func() {
			_, err1 = w.clients[0].UseLatest(ctx.KindLocation, subject)
		})
		owner := direct[ring.Owner(sourceOf(subject))]
		w.cfg.trace.span(0, "client.use-latest.direct", func() {
			_, err2 = owner.UseLatest(ctx.KindLocation, subject)
		})
		if err1 != nil || err2 != nil {
			failed++
		} else {
			w.reads.Add(1)
		}
	}
	r.check("hop-probe", failed == 0, fmt.Sprintf("%d of 200 hop probes failed", failed))
	p50 := func(name string) float64 {
		return us(percentile(sortDurations(w.cfg.trace.durations(name)), 50))
	}
	if hop := p50("client.use-latest.routed") - p50("client.use-latest.direct"); hop > 0 {
		r.layer["cluster.router_hop_us"] = hop
	}
}

func (w *routedBatch) finish(r *result) {
	if w.cfg.traced() && w.newest != nil {
		w.measureHop(r)
	}
	rs := w.router.Stats()
	leaderSeq := w.nodes[0].mw.JournalStats().LastSeq
	overflows := w.nodes[0].shipper.Stats().Overflows
	closeClients(w.clients)
	w.clients = nil

	// Quiesced: the follower must catch up with the leader's log while the
	// leader still serves its replication stream.
	deadline := time.Now().Add(5 * time.Second)
	for w.follower.LastSeq() < leaderSeq && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	r.check("follower-caught-up", w.follower.LastSeq() >= leaderSeq,
		fmt.Sprintf("follower at seq %d, leader at %d, 5 s after quiesce", w.follower.LastSeq(), leaderSeq))
	w.stopLag()
	w.stopLag = nil
	w.quiesce(r)

	r.check("scattered=0", rs.Scattered == 0, fmt.Sprintf("router scattered %d operations", rs.Scattered))
	var owned int64
	for _, s := range rs.Shards {
		owned += s.Owned
	}
	r.check("shard-totals", owned == w.acked.Load()+w.reads.Load(),
		fmt.Sprintf("shards owned %d operations, acknowledged %d contexts + %d use-latest", owned, w.acked.Load(), w.reads.Load()))

	r.layer["cluster.routed_total"] = float64(rs.Routed)
	r.layer["cluster.scattered_total"] = float64(rs.Scattered)
	r.layer["cluster.shard_skew_ratio"] = w.blindSkew
	w.lagMu.Lock()
	r.layer["cluster.repl_lag_records_p50"] = median(w.lag)
	for _, v := range w.lag {
		r.layer["cluster.repl_lag_records_max"] = math.Max(r.layer["cluster.repl_lag_records_max"], v)
	}
	w.lagMu.Unlock()
	r.layer["cluster.repl_feed_overflows"] = float64(overflows)
}

func (w *routedBatch) close() {
	closeClients(w.clients)
	w.clients = nil
	if w.router != nil {
		w.router.Shutdown()
		w.router = nil
	}
	if w.stopLag != nil {
		w.stopLag()
		w.stopLag = nil
	}
	if w.follower != nil {
		_ = w.follower.Stop()
		w.follower = nil
	}
	w.daemonRun.close()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

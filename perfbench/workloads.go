package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/runspec"
)

// Set-up runs this many times in an untraced run; setup_s is the median.
// Each serving set-up boots fresh daemons over a fresh store and is torn
// down before the next, so only the last one serves the timed window.
const (
	serveSetups  = 15
	repeatSetups = 5 // each fills the 5120-spec pool, about 1.5 s
	simSetups    = 15
	// loopClients is the closed loop's caller count for the serving
	// workloads, one connection each: netemud's callers each wait for
	// their reply. It is twice nproc on the 2-CPU reference box. With
	// one caller per CPU the CPUs idle between requests, and on a shared
	// virtual machine the time to wake an idle CPU moved serve-repeat's
	// throughput by up to 30% from run to run; four callers keep both
	// CPUs busy.
	loopClients = 4
)

func clientsOf(workload string) int {
	if workload == "sim-heavy" {
		return 1
	}
	return loopClients
}

// deployment is the set of daemons serving one set-up.
type deployment struct {
	front  *daemon // the daemon the load generator talks to
	worker *daemon // cluster-fresh only
	store  string  // the front daemon's -store directory
}

func (d *deployment) daemons() []*daemon {
	if d.worker != nil {
		return []*daemon{d.front, d.worker}
	}
	return []*daemon{d.front}
}

func (d *deployment) stop() {
	for _, x := range d.daemons() {
		x.stop()
	}
}

// deploy boots the workload's daemons, default flags plus a fresh -store.
func deploy(cfg config, dir string) (*deployment, error) {
	store := filepath.Join(dir, "store")
	if cfg.workload != "cluster-fresh" {
		d, err := startDaemon(cfg.netemud, dir, "netemud", "-store", store)
		if err != nil {
			return nil, err
		}
		return &deployment{front: d, store: store}, nil
	}
	w, err := startDaemon(cfg.netemud, dir, "worker", "-worker")
	if err != nil {
		return nil, err
	}
	c, err := startDaemon(cfg.netemud, dir, "coordinator", "-workers", strings.TrimPrefix(w.base, "http://"), "-store", store)
	if err != nil {
		w.stop()
		return nil, err
	}
	dep := &deployment{front: c, worker: w, store: store}
	m, err := c.metrics()
	if err != nil || m.Cluster == nil || m.Cluster.WorkersAlive != 1 {
		dep.stop()
		return nil, fmt.Errorf("coordinator does not see its worker (metrics %+v, %v)", m.Cluster, err)
	}
	return dep, nil
}

// streamOf returns the workload's op stream, its set-up ops, and the
// specs the ladder times.
func streamOf(cfg config) (next func() Op, setupOps []Op, ladder []runspec.Spec) {
	if cfg.workload == "serve-repeat" {
		pool, rank := repeatPool(cfg.seed)
		g := newRepeatGen(cfg.seed, pool, rank)
		for r := 0; r < 60; r++ {
			ladder = append(ladder, pool[g.rank[r]])
		}
		return g.Next, fillOps(pool), ladder
	}
	g := newFreshGen(cfg.seed)
	peek := newFreshGen(cfg.seed)
	for len(ladder) < 60 {
		ladder = append(ladder, peek.Next().Specs...)
	}
	return g.Next, freshWarmup(), ladder
}

// runServe runs serve-fresh, serve-repeat or cluster-fresh.
func runServe(cfg config, tr *tracer) (outcome, error) {
	o := outcome{metrics: map[string]float64{}, info: map[string]any{}}
	o.info["startup_ms"] = ms(time.Since(cfg.start))

	setups := serveSetups
	if cfg.workload == "serve-repeat" {
		setups = repeatSetups
	}
	if cfg.trace {
		setups = 1
	}
	// The stream is the benchmark's own work, so it is made before any
	// set-up is timed; set-up sends the same ops every time.
	next, setupOps, ladderSpecs := streamOf(cfg)
	var (
		dep          *deployment
		hc           *http.Client
		setupSamples []*sample
		setupS       []float64
	)
	for k := 0; k < setups; k++ {
		if dep != nil {
			dep.stop()
			hc.CloseIdleConnections()
		}
		dir := mustDir(filepath.Join(cfg.tmp, fmt.Sprintf("setup-%d", k)))
		t0 := time.Now()
		var err error
		if dep, err = deploy(cfg, dir); err != nil {
			return o, err
		}
		hc = newClient(loopClients)
		setupSamples = sendAll(loopClients, setupOps, httpDo(hc, dep.front.base, nil))
		setupS = append(setupS, time.Since(t0).Seconds())
		if err := checkStatus(setupSamples, "set-up"); err != nil {
			return o, err
		}
	}
	o.info["setup_runs_s"] = setupS

	before := map[*daemon]srvMetrics{}
	cpuBefore := map[*daemon]float64{}
	for _, d := range dep.daemons() {
		m, err := d.metrics()
		if err != nil {
			return o, err
		}
		before[d], cpuBefore[d] = m, cpuMS(d.pid())
	}
	refs := map[string][]byte{}
	if err := references(refs, setupSamples); err != nil {
		return o, err
	}
	t, err := timedRun(cfg, loopClients, next, func(t *tracer) func(Op, *sample) { return httpDo(hc, dep.front.base, t) }, tr,
		func(part []*sample) error { return references(refs, part) })
	if err != nil {
		return o, err
	}
	if err := references(refs, t.samples); err != nil { // the last quarter's
		return o, err
	}
	after := map[*daemon]srvMetrics{}
	cpu := map[*daemon]float64{}
	var rss float64
	for _, d := range dep.daemons() {
		m, err := d.metrics()
		if err != nil {
			return o, err
		}
		after[d], cpu[d] = m, cpuMS(d.pid())-cpuBefore[d]
		rss += peakRSSMB(fmt.Sprint(d.pid()))
	}
	dep.stop()
	hc.CloseIdleConnections()

	var stored storeIndex
	if cfg.workload == "serve-repeat" {
		specs := make([]runspec.Spec, len(setupOps))
		for i, op := range setupOps {
			specs[i] = op.Specs[0]
		}
		if stored, err = readStoreIndex(dep.store, specs); err != nil {
			return o, err
		}
	}
	if cfg.workload == "cluster-fresh" {
		if err := matchSingleNode(cfg, setupOps, t.samples); err != nil {
			return o, err
		}
	}
	if n := verify(setupSamples, refs, stored); n > 0 {
		return o, fmt.Errorf("%d set-up responses differ from the reference; first: %s", n, firstWrong(setupSamples))
	}
	o.failed = verify(t.samples, refs, stored)
	o.attempted = len(t.samples)
	o.mismatch = firstWrong(t.samples)
	repeat := repeatShare(setupSamples, t.samples)
	summarize(&o, t, repeat, cfg.seconds)
	o.metrics["setup_s"] = median(setupS)
	o.metrics["peak_rss_mb"] = rss
	if !cfg.trace {
		return o, nil
	}

	L, err := runLadder(ladderSample(ladderSpecs, cfg.seed), cfg.tmp, tr)
	if err != nil {
		return o, err
	}
	for k, v := range L.m {
		o.metrics[k] = v
	}
	serverLayers(o.metrics, cfg.workload, dep, before, after, cpu, t.samples, L.pipelineUS)
	traceLayers(o.metrics, t, tr, repeat)
	return o, nil
}

// windowParts is how many parts a timed window runs in. Between parts
// the serving workloads compute the in-process references of the part
// just run, work a run does outside its window anyway. So their window
// samples a shared host over about twice its length in wall time, at no
// cost in run length, and a slow spell of the host covers a smaller share
// of it. A traced run traces the 2nd and 4th parts only, so its own
// untraced parts give the tracing overhead.
const windowParts = 4

// timed is the timed window of a run.
type timed struct {
	samples []*sample
	elapsed [2]time.Duration // [untraced, traced]
	count   [2]int
	// stealPct is the share of the box's CPU time the hypervisor took
	// during the window's parts, from /proc/stat.
	stealPct float64
}

// timedRun runs the window's parts and calls between with each part's
// samples after every part but the last.
func timedRun(cfg config, clients int, next func() Op, mk func(*tracer) func(Op, *sample), tr *tracer, between func([]*sample) error) (timed, error) {
	var t timed
	var total, steal float64
	for i := 0; i < windowParts; i++ {
		traced := cfg.trace && i%2 == 1
		var partTr *tracer
		if traced {
			partTr = tr
		}
		total0, steal0 := cpuStat()
		w := timedLoop(clients, cfg.seconds/windowParts, next, mk(partTr))
		total1, steal1 := cpuStat()
		total, steal = total+total1-total0, steal+steal1-steal0
		for _, s := range w.samples {
			s.done += t.elapsed[0] + t.elapsed[1]
		}
		k := b2i(traced)
		t.elapsed[k] += w.elapsed
		t.count[k] += len(w.samples)
		t.samples = append(t.samples, w.samples...)
		if i < windowParts-1 {
			if err := between(w.samples); err != nil {
				return t, err
			}
		}
	}
	t.stealPct = ratio(steal, total) * 100
	return t, nil
}

// The end-to-end metrics are each the median over equal parts of the
// timed window, so a few seconds of interference from other tenants of
// the box move them less. Throughput, p50 and p90 take subWindows parts;
// p99 takes as many as still hold p99Samples ops each (ten beyond the
// part's p99), and the whole window when even one part would hold fewer.
const (
	subWindows = 10
	p99Samples = 1000
)

// inParts cuts the window's samples into k equal parts by completion
// time and returns f of each part's sorted latencies and length. The last
// part runs until the last op returned.
func inParts(ss []*sample, k int, window, elapsed time.Duration, f func(lat []float64, length time.Duration) float64) []float64 {
	part := window / time.Duration(k)
	groups := make([][]*sample, k)
	for _, s := range ss {
		i := min(int(s.done/part), k-1)
		groups[i] = append(groups[i], s)
	}
	out := make([]float64, k)
	for i, g := range groups {
		length := part
		if i == k-1 {
			length = elapsed - part*time.Duration(k-1)
		}
		out[i] = f(latencies(g, nil), length)
	}
	return out
}

// summarize fills the end-to-end metrics from the timed window.
func summarize(o *outcome, t timed, repeat float64, window time.Duration) {
	lat := latencies(t.samples, nil)
	n := len(lat)
	elapsed := t.elapsed[0] + t.elapsed[1]
	thr := inParts(t.samples, subWindows, window, elapsed, func(l []float64, d time.Duration) float64 { return float64(len(l)) / d.Seconds() })
	at := func(q float64) func([]float64, time.Duration) float64 {
		return func(l []float64, _ time.Duration) float64 { return quantile(l, q) }
	}
	p99Parts := max(1, min(subWindows, n/p99Samples))
	o.metrics["throughput_ops_per_s"] = median(thr)
	o.metrics["latency_p50_ms"] = median(inParts(t.samples, subWindows, window, elapsed, at(0.50)))
	o.metrics["latency_p90_ms"] = median(inParts(t.samples, subWindows, window, elapsed, at(0.90)))
	o.metrics["latency_p99_ms"] = median(inParts(t.samples, p99Parts, window, elapsed, at(0.99)))
	o.info["p99_parts"] = p99Parts
	o.info["whole_window"] = map[string]float64{
		"throughput_ops_per_s": float64(n) / elapsed.Seconds(),
		"latency_p50_ms":       quantile(lat, 0.50),
		"latency_p90_ms":       quantile(lat, 0.90),
		"latency_p99_ms":       quantile(lat, 0.99),
	}
	o.info["sub_window_throughput"] = thr
	o.info["ops"] = n
	o.info["samples_beyond_p99"] = n / p99Parts / 100 // per part
	o.info["repeat_share"] = repeat
	o.info["steal_pct"] = t.stealPct
	byLabel := map[string]int{}
	for _, s := range t.samples {
		byLabel[s.op.Label]++
	}
	labelP50 := map[string]float64{}
	for l := range byLabel {
		labelP50[l] = quantile(latencies(t.samples, func(s *sample) bool { return s.op.Label == l }), 0.5)
	}
	o.info["ops_by_label"] = byLabel
	o.info["p50_ms_by_label"] = labelP50
	if n/100 < 10 {
		o.info["p99_warning"] = fmt.Sprintf("only %d samples beyond p99; p99 is not reliable", n/100)
	}
}

// repeatShare is the share of the window's spec uses whose canonical key
// the run had already sent (set-up included).
func repeatShare(setup, window []*sample) float64 {
	seen := map[string]bool{}
	for _, s := range setup {
		for _, sp := range s.op.Specs {
			seen[sp.Canonical()] = true
		}
	}
	uses, repeats := 0, 0
	for _, s := range window {
		for _, sp := range s.op.Specs {
			k := sp.Canonical()
			uses++
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
	}
	if uses == 0 {
		return 0
	}
	return float64(repeats) / float64(uses)
}

// probeEndpoint is where http.transport_us compares client and server
// latency: the store read path on serve-repeat (set-up never touches
// it), /v1/measure elsewhere.
func probeEndpoint(workload string) string {
	if workload == "serve-repeat" {
		return "/v1/results"
	}
	return "/v1/measure"
}

// serverLayers derives the server, http, store and cluster metrics from
// /metrics deltas, /proc CPU times and the ladder. Histogram quantiles
// cover the daemon's whole life, set-up included.
func serverLayers(m map[string]float64, workload string, dep *deployment, before, after map[*daemon]srvMetrics, cpu map[*daemon]float64, samples []*sample, pipelineUS float64) {
	front := dep.front
	exec := front
	if dep.worker != nil {
		exec = dep.worker
	}
	fb, fa := before[front], after[front]
	delta := func(f func(srvMetrics) int64) float64 {
		var s int64
		for _, d := range dep.daemons() {
			s += f(after[d]) - f(before[d])
		}
		return float64(s)
	}
	reqs := float64(fa.Requests - fb.Requests)
	lookups := float64(fa.Endpoints["/v1/measure"].Requests - fb.Endpoints["/v1/measure"].Requests +
		fa.Endpoints["/v1/emulate"].Requests - fb.Endpoints["/v1/emulate"].Requests +
		fa.SweepPoints - fb.SweepPoints)
	m["server.memo_hit_ratio"] = ratio(float64(fa.MemoHits-fb.MemoHits), lookups)
	m["server.coalesced_ratio"] = ratio(float64(fa.CoalescedHits-fb.CoalescedHits), lookups)
	m["server.exec_per_request"] = ratio(delta(func(x srvMetrics) int64 { return x.Executions }), reqs)
	m["server.shed_429"] = delta(func(x srvMetrics) int64 { return x.ShedQueueFull })
	m["server.timeouts"] = delta(func(x srvMetrics) int64 { return x.Timeouts })
	m["server.panics"] = delta(func(x srvMetrics) int64 { return x.Panics })
	em := after[exec].Endpoints["/v1/measure"].LatencyUS
	m["server.measure_p50_us"] = float64(em.P50)
	m["server.measure_p99_us"] = float64(em.P99)
	m["server.sweep_point_us"] = float64(fa.Endpoints["/v1/sweep"].LatencyUS.P50) / sweepPoints
	m["server.overhead_us"] = float64(em.P50) - pipelineUS
	var cpuAll float64
	for _, d := range dep.daemons() {
		cpuAll += cpu[d]
	}
	m["server.cpu_ms_per_request"] = ratio(cpuAll, reqs)
	m["server.results_p50_us"] = float64(fa.Endpoints["/v1/results"].LatencyUS.P50)

	probe := probeEndpoint(workload)
	client := latencies(samples, func(s *sample) bool { return s.op.endpoint() == probe })
	m["http.transport_us"] = quantile(client, 0.5)*1e3 - float64(fa.Endpoints[probe].LatencyUS.P50)

	if fa.Store != nil && fb.Store != nil {
		m["store.appends"] = float64(fa.Store.Appends - fb.Store.Appends)
		m["store.dup_skips"] = float64(fa.Store.DupSkips - fb.Store.DupSkips)
	}
	m["cluster.hop_us"], m["cluster.forwarded_ratio"], m["cluster.failovers"], m["cluster.local_fallbacks"], m["cluster.coordinator_cpu_ms_per_request"] = 0, 0, 0, 0, 0
	if dep.worker != nil && fa.Cluster != nil && fb.Cluster != nil {
		m["cluster.hop_us"] = float64(fa.Endpoints["/v1/emulate"].LatencyUS.P50 - after[exec].Endpoints["/v1/emulate"].LatencyUS.P50)
		fwd := float64(fa.Cluster.Forwarded - fb.Cluster.Forwarded)
		local := float64(fa.Cluster.LocalFallbacks - fb.Cluster.LocalFallbacks)
		m["cluster.forwarded_ratio"] = ratio(fwd, fwd+local)
		m["cluster.failovers"] = float64(fa.Cluster.Failovers - fb.Cluster.Failovers)
		m["cluster.local_fallbacks"] = local
		m["cluster.coordinator_cpu_ms_per_request"] = ratio(cpu[front], reqs)
	}
}

// zeroServerLayers marks every layer sim-heavy never reaches.
func zeroServerLayers(m map[string]float64) {
	for _, x := range perLayer {
		if l := layerOf(x.name); l == "server" || l == "http" || l == "cluster" {
			if _, ok := m[x.name]; !ok {
				m[x.name] = 0
			}
		}
	}
	m["store.appends"], m["store.dup_skips"] = 0, 0
}

// traceLayers adds the tracing overhead, span counts and self times.
func traceLayers(m map[string]float64, t timed, tr *tracer, repeat float64) {
	untraced := latencies(t.samples, func(s *sample) bool { return !s.traced })
	traced := latencies(t.samples, func(s *sample) bool { return s.traced })
	m["trace.overhead_p50_us"] = (quantile(traced, 0.5) - quantile(untraced, 0.5)) * 1e3
	thrU := float64(t.count[0]) / t.elapsed[0].Seconds()
	thrT := float64(t.count[1]) / t.elapsed[1].Seconds()
	m["trace.overhead_throughput_pct"] = (thrU - thrT) / thrU * 100
	m["trace.spans"] = float64(tr.count())
	self := tr.selfTimes()
	for _, l := range selfLayers {
		m["trace.self_ms."+l] = self[l]
	}
	m["workload.repeat_share"] = repeat
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayOps is how many window ops, in stream order, cluster-fresh
// replays against a single node. Every window body is already compared
// with the in-process reference, which a correct single node serves too;
// the replay checks the two deployments against each other directly, on
// over ten blocks of the mix, without doubling the length of a run.
const replayOps = 2000

// matchSingleNode replays the first replayOps ops of the cluster's timed
// window, after its set-up ops, against a fresh single netemud deployed
// as serve-fresh deploys it, and marks every replayed op whose cluster
// response differs from the single node's in status or bytes.
func matchSingleNode(cfg config, setupOps []Op, window []*sample) error {
	single := cfg
	single.workload = "serve-fresh"
	dep, err := deploy(single, mustDir(filepath.Join(cfg.tmp, "single-node")))
	if err != nil {
		return err
	}
	defer dep.stop()
	hc := newClient(loopClients)
	defer hc.CloseIdleConnections()
	do := httpDo(hc, dep.front.base, nil)
	if err := checkStatus(sendAll(loopClients, setupOps, do), "single-node set-up"); err != nil {
		return err
	}
	window = window[:min(len(window), replayOps)]
	ops := make([]Op, len(window))
	for i, s := range window {
		ops[i] = s.op
	}
	byIdx := map[int]*sample{}
	for _, r := range sendAll(loopClients, ops, do) {
		byIdx[r.op.Idx] = r
	}
	for _, s := range window {
		if r := byIdx[s.op.Idx]; r.err != "" || r.status != s.status || r.sum != s.sum {
			s.wrong = "response differs from a single node's"
		}
	}
	return nil
}

// runSim runs sim-heavy: one in-process caller executing large-machine
// specs over one warm ArtifactCache. No server, store or cluster code runs.
func runSim(cfg config, tr *tracer) (outcome, error) {
	o := outcome{metrics: map[string]float64{}, info: map[string]any{}}
	o.info["startup_ms"] = ms(time.Since(cfg.start))
	warmSpecs := simSpecs()
	for i := range warmSpecs {
		warmSpecs[i].Seed = -1 // a seed the stream never uses
	}

	warm := func() (*runspec.ArtifactCache, float64, error) {
		debug.FreeOSMemory() // collect earlier garbage outside the timing
		t0 := time.Now()
		c := runspec.NewArtifactCache(0, 0)
		for _, s := range warmSpecs {
			if _, err := runspec.ExecuteCached(c, s); err != nil {
				return nil, 0, err
			}
		}
		return c, time.Since(t0).Seconds(), nil
	}
	cache, first, err := warm()
	if err != nil {
		return o, err
	}
	setupS := []float64{first}

	g := newSimGen(cfg.seed)
	mk := func(t *tracer) func(Op, *sample) {
		return func(op Op, s *sample) {
			id := t.begin("runspec.execute_cached", 0, int64(op.Idx))
			t0 := time.Now()
			res, err := runspec.ExecuteCached(cache, op.Specs[0])
			s.lat = time.Since(t0)
			t.end(id)
			s.traced = t != nil
			if err != nil {
				s.err = err.Error()
				return
			}
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				s.err = err.Error()
				return
			}
			s.status = http.StatusOK
			s.sum = sha256.Sum256(append(b, '\n'))
		}
	}
	t, err := timedRun(cfg, 1, g.Next, mk, tr, func([]*sample) error { return nil })
	if err != nil {
		return o, err
	}
	rss := peakRSSMB("self")

	// The other set-ups run after the window and the RSS reading, so the
	// caches they build and drop never add to peak_rss_mb.
	for k := 1; k < simSetups && !cfg.trace; k++ {
		_, s, err := warm()
		if err != nil {
			return o, err
		}
		setupS = append(setupS, s)
	}
	o.info["setup_runs_s"] = setupS

	refs := map[string][]byte{}
	if err := references(refs, t.samples); err != nil {
		return o, err
	}
	o.failed = verify(t.samples, refs, nil)
	o.attempted = len(t.samples)
	o.mismatch = firstWrong(t.samples)
	repeat := repeatShare(nil, t.samples)
	summarize(&o, t, repeat, cfg.seconds)
	o.metrics["setup_s"] = median(setupS)
	o.metrics["peak_rss_mb"] = rss
	if !cfg.trace {
		return o, nil
	}
	own := simSpecs()
	for i := range own {
		own[i].Seed = seedBase(cfg.seed)
	}
	L, err := runLadder(ladderSample(own, cfg.seed), cfg.tmp, tr)
	if err != nil {
		return o, err
	}
	for k, v := range L.m {
		o.metrics[k] = v
	}
	// The workload's own cache, not the ladder's: builds past the
	// warm-up's would show work that set-up left to the timed window.
	o.metrics["runspec.machine_builds"] = float64(cache.MachineBuilds())
	o.metrics["runspec.engine_builds"] = float64(cache.EngineBuilds())
	zeroServerLayers(o.metrics)
	traceLayers(o.metrics, t, tr, repeat)
	return o, nil
}

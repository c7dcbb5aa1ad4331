// Command perfbench is the repository's benchmark. It runs one named
// workload against the code in this checkout, measures it end to end for
// a fixed number of seconds, verifies every response byte for byte
// against in-process runspec.Execute, and prints one JSON result line:
//
//	perfbench --workload serve-fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// Build and run it through run.sh, which compiles netemud and this
// command from the checkout first. README.md explains the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	name, unit string
}

// endToEnd lists the --trace 0 metrics of the result line, in output
// order. error_rate, failed over attempted, is an end-to-end metric too,
// but it reads 0 on a correct run, so it is printed on a summary line and
// the result line carries it as its failed and attempted counts.
var endToEnd = []metric{
	{"throughput_ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// selfLayers are the layers whose spans the traced run records.
var selfLayers = []string{"http", "runspec", "routing", "topology", "emulation", "server", "store"}

// perLayer lists the --trace 1 metrics, in output order. A layer a
// workload never reaches reads 0 there (README.md, "Per-layer metrics").
var perLayer = func() []metric {
	m := []metric{
		{"routing.tick_us", "us"},
		{"routing.msgs_per_s", "1/s"},
		{"routing.shard_speedup", "ratio"},
		{"routing.allocs_per_op", "count"},
		{"routing.engine_build_ms", "ms"},
		{"topology.build_ms", "ms"},
		{"runspec.exec_ms.beta", "ms"},
		{"runspec.exec_ms.steady-beta", "ms"},
		{"runspec.exec_ms.open-loop", "ms"},
		{"runspec.exec_ms.fault-curve", "ms"},
		{"runspec.exec_ms.lambda", "ms"},
		{"runspec.exec_ms.emulate", "ms"},
		{"runspec.cold_warm_ratio", "ratio"},
		{"runspec.machine_builds", "count"},
		{"runspec.engine_builds", "count"},
		{"runspec.canonical_us", "us"},
		{"emulation.build_share", "ratio"},
		{"server.memo_hit_ratio", "ratio"},
		{"server.coalesced_ratio", "ratio"},
		{"server.exec_per_request", "ratio"},
		{"server.shed_429", "count"},
		{"server.timeouts", "count"},
		{"server.panics", "count"},
		{"server.measure_p50_us", "us"},
		{"server.measure_p99_us", "us"},
		{"server.sweep_point_us", "us"},
		{"server.encode_us", "us"},
		{"server.overhead_us", "us"},
		{"server.cpu_ms_per_request", "ms"},
		{"server.results_p50_us", "us"},
		{"http.transport_us", "us"},
		{"store.append_us", "us"},
		{"store.appends", "count"},
		{"store.dup_skips", "count"},
		{"store.query_us", "us"},
		{"cluster.hop_us", "us"},
		{"cluster.forwarded_ratio", "ratio"},
		{"cluster.failovers", "count"},
		{"cluster.local_fallbacks", "count"},
		{"cluster.coordinator_cpu_ms_per_request", "ms"},
		{"workload.repeat_share", "ratio"},
		{"trace.overhead_p50_us", "us"},
		{"trace.overhead_throughput_pct", "%"},
		{"trace.spans", "count"},
	}
	for _, l := range selfLayers {
		m = append(m, metric{"trace.self_ms." + l, "ms"})
	}
	return m
}()

var workloads = []string{"sim-heavy", "serve-fresh", "serve-repeat", "cluster-fresh"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	netemud  string
	out      string // results directory root
	tmp      string // this run's scratch directory, removed on exit
	start    time.Time
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	info              map[string]any
	mismatch          string // first failed op, if any
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	procStart := time.Now()
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same request stream")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = a separate traced run with per-layer metrics")
	netemud := flag.String("netemud", "", "netemud binary built from this checkout (run.sh passes it)")
	root := flag.String("root", ".", "root of the checkout (run.sh passes it)")
	out := flag.String("out", "", "directory for results, spans and scratch state (default <root>/.bench_build/perfbench)")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		log.Fatalf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *trace != 0 && *trace != 1:
		log.Fatalf("--trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		log.Fatalf("--seconds must be positive, got %v", *seconds)
	case *workload != "sim-heavy" && *netemud == "":
		log.Fatal("--netemud is required for the serving workloads; run through run.sh")
	}
	if *out == "" {
		*out = filepath.Join(*root, ".bench_build", "perfbench")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		netemud:  *netemud,
		out:      *out,
		start:    procStart,
	}
	tmp, err := os.MkdirTemp(mustDir(filepath.Join(cfg.out, "tmp")), "run-")
	if err != nil {
		log.Fatal(err)
	}
	cfg.tmp = tmp
	os.Exit(run(cfg, *root))
}

func mustDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	return dir
}

// runDeadline bounds one invocation; past it the benchmark stops its
// daemons and exits without a result.
const runDeadline = 170 * time.Second

// run executes the workload and reports; it returns the exit code. Every
// daemon is stopped and the scratch directory removed on every path.
func run(cfg config, root string) int {
	cleanup := func() {
		stopAll()
		os.RemoveAll(cfg.tmp)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("got %v, stopping", s)
		cleanup()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runDeadline, func() {
		log.Printf("no result after %v, stopping", runDeadline)
		cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer cleanup()

	var o outcome
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var err error
	switch cfg.workload {
	case "sim-heavy":
		o, err = runSim(cfg, tr)
	default:
		o, err = runServe(cfg, tr)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	prov := provenance(cfg, root)
	return report(cfg, o, prov, tr)
}

// report prints the summary lines and the result line, and writes the
// full record (and the spans of a traced run) under <out>/results.
func report(cfg config, o outcome, prov map[string]any, tr *tracer) int {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, m := range names {
		v, ok := o.metrics[m.name]
		if !ok {
			log.Printf("metric %s was not measured", m.name)
			return 1
		}
		metrics[m.name] = value{v, m.unit}
	}
	correct := o.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		log.Print(err)
		return 1
	}

	dir := mustDir(filepath.Join(cfg.out, "results"))
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace))
	record, _ := json.MarshalIndent(map[string]any{"provenance": prov, "info": o.info, "result": json.RawMessage(line)}, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(record, '\n'), 0o644); err != nil {
		log.Print(err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(dir, base+"-spans.json")); err != nil {
			log.Print(err)
		}
	}

	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	keys := make([]string, 0, len(o.info))
	for k := range o.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info %s = %v\n", k, o.info[k])
	}
	for _, m := range names {
		fmt.Printf("metric %-42s %14.4f %s\n", m.name, o.metrics[m.name], m.unit)
	}
	if !cfg.trace {
		fmt.Printf("metric %-42s %14.4f %s\n", "error_rate", float64(o.failed)/float64(o.attempted), "ratio")
	}
	if o.mismatch != "" {
		log.Printf("first failed op: %s", o.mismatch)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

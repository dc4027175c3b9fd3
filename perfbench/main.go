// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of the engine, daemon, wire and
// cluster packages, checks every report it gets back against a
// sequential core.Profiler reference, and prints its metrics.
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 40 --trace 0
//
// With --trace 0 a run measures the end-to-end metrics of one workload
// with tracing off. With --trace 1 it makes a traced pass over every
// workload (the named one gets half the time) and reports the
// per-layer metrics, timed from this package's own calls into each
// layer. Both print, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The line
// before it is a JSON record of the environment and the workload's
// parameters, sample counts and tail percentiles.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric. End-to-end metrics carry the bound by
// which a change may worsen them. Per-layer metrics name the
// end-to-end metric they should move, the workloads on which they
// should move it, and the traced pass that measures them.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
	on                 []string
	from               string
}

const (
	wReplay  = "replay"
	wIngest  = "durable-ingest"
	wCluster = "cluster-small"
)

// workloads lists the workloads in run order with why each was chosen.
// BENCHMARK.json declares the listed ones. Every workload runs by name,
// and every --trace 1 run makes a traced pass over each of them, so the
// per-layer metrics of an unlisted workload are still measured.
// cluster-small is unlisted because its millisecond latencies, set by
// host scheduling on a shared 2-CPU machine, spread between runs of
// the same code by more than any bound the benchmark may declare.
var workloads = []struct {
	name, why string
	listed    bool
}{
	{wReplay, "offline BTR3 replay jobs: decode, predictor kernel, profiler apply and engine routing; no network or disk", true},
	{wIngest, "durable daemon over wire: WAL tee, recovery in set-up, engine front-end, live report snapshot/merge beside ingest", true},
	{wCluster, "open-loop short bias sessions via router to two nodes: per-session fixed costs, relay, group scatter-gather", false},
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "session_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "session_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "report_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "report_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_mevent", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_peak_mb", unit: "MB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "trace.decode_s", unit: "s", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay}, from: wReplay},
	{name: "trace.decode_events_per_s", unit: "1/s", better: "higher", moves: "events_per_s, session_p50_ms", on: []string{wReplay}, from: wReplay},
	{name: "trace.bytes_per_event", unit: "B/event", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay}, from: wReplay},
	{name: "bpred.predict_s", unit: "s", better: "lower", moves: "events_per_s", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "bpred.hit_ratio", unit: "ratio", better: "higher", moves: "none: exact, must never change", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "core.apply_s", unit: "s", better: "lower", moves: "cpu_ms_per_mevent", on: []string{wReplay, wIngest, wCluster}, from: wReplay},
	{name: "core.finish_s", unit: "s", better: "lower", moves: "cpu_ms_per_mevent", on: []string{wReplay, wIngest, wCluster}, from: wReplay},
	{name: "core.merge_s", unit: "s", better: "lower", moves: "report_p50_ms", on: []string{wCluster}, from: wCluster},
	{name: "core.report_json_s", unit: "s", better: "lower", moves: "report_p50_ms", on: []string{wReplay, wIngest, wCluster}, from: wReplay},
	{name: "core.report_json_bytes", unit: "B", better: "lower", moves: "report_p50_ms", on: []string{wReplay, wIngest, wCluster}, from: wReplay},
	{name: "engine.batch_s", unit: "s", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "engine.overhead_s", unit: "s", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "engine.finish_s", unit: "s", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "engine.queue_depth_mean", unit: "count", better: "lower", moves: "events_per_s, session_p50_ms", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "engine.workers_speedup", unit: "ratio", better: "higher", moves: "events_per_s, session_p50_ms", on: []string{wReplay, wIngest}, from: wReplay},
	{name: "wal.bytes_per_event", unit: "B/event", better: "lower", moves: "events_per_s", on: []string{wIngest}, from: wIngest},
	{name: "wal.append_s", unit: "s", better: "lower", moves: "events_per_s", on: []string{wIngest}, from: wIngest},
	{name: "wal.sync_s", unit: "s", better: "lower", moves: "events_per_s", on: []string{wIngest}, from: wIngest},
	{name: "wal.syncs", unit: "count", better: "lower", moves: "events_per_s", on: []string{wIngest}, from: wIngest},
	{name: "wal.recover_s", unit: "s", better: "lower", moves: "setup_s", on: []string{wIngest}, from: wIngest},
	{name: "wire.send_s", unit: "s", better: "lower", moves: "session_p50_ms, events_per_s", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "wire.end_ms", unit: "ms", better: "lower", moves: "session_p50_ms, events_per_s", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "wire.bytes_per_event", unit: "B/event", better: "lower", moves: "session_p50_ms, events_per_s", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "serve.begin_ms", unit: "ms", better: "lower", moves: "session_p50_ms, session_tail_ms", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "serve.report_ms", unit: "ms", better: "lower", moves: "session_p50_ms, session_tail_ms", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "serve.shed", unit: "count", better: "lower", moves: "error_rate", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "serve.failed", unit: "count", better: "lower", moves: "error_rate", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "serve.queue_depth_max", unit: "count", better: "lower", moves: "session_tail_ms", on: []string{wIngest, wCluster}, from: wIngest},
	{name: "cluster.proxy_ms", unit: "ms", better: "lower", moves: "session_p50_ms, report_p50_ms", on: []string{wCluster}, from: wCluster},
	{name: "cluster.scatter_ms", unit: "ms", better: "lower", moves: "session_p50_ms, report_p50_ms", on: []string{wCluster}, from: wCluster},
	{name: "cluster.shed", unit: "count", better: "lower", moves: "session_p50_ms, report_p50_ms", on: []string{wCluster}, from: wCluster},
	{name: "cluster.proxy_errors", unit: "count", better: "lower", moves: "session_p50_ms, report_p50_ms", on: []string{wCluster}, from: wCluster},
	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower", moves: "validity check", on: []string{wIngest, wCluster}, from: wCluster},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower", moves: "validity check", on: []string{wReplay, wIngest, wCluster}, from: wReplay},
}

// setupStarts is how many times a run sets the system under test up;
// setup_s is the median.
const setupStarts = 61

// env is what every workload gets: the seed, its scratch directory and
// the load shape.
type env struct {
	seed    uint64
	dir     string
	smoke   bool // short inputs, for the smoke test
	clients int  // closed-loop clients and open-loop workers: one per CPU
}

// bench is one workload.
type bench interface {
	// prepare builds the inputs and reference reports; untimed.
	prepare() error
	// start brings the system under test up and returns the part of
	// that time that setup_s counts.
	start() (time.Duration, error)
	// stop tears the system under test down.
	stop()
	// measure drives load until the phase deadline.
	measure(p *phase) error
	// trace drives traced load until the phase deadline and stores the
	// per-layer metrics the workload is the source of.
	trace(p *phase, out map[string]float64) error
	// facts describes the workload for the result record.
	facts() map[string]any
	// close removes the workload's scratch files.
	close()
}

func newBench(name string, e *env) (bench, error) {
	switch name {
	case wReplay:
		return &replayBench{e: e}, nil
	case wIngest:
		return &ingestBench{e: e}, nil
	case wCluster:
		return &clusterBench{e: e}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	root     string
	work     string
	rev      string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally accumulates operation counts across a run's phases.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) add(p *phase) {
	t.attempted += p.attempted.Load()
	t.failed += p.failed.Load()
	p.mu.Lock()
	t.errs = append(t.errs, p.errs...)
	p.mu.Unlock()
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: replay, durable-ingest or cluster-small")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that reports the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the checkout, for the source digest")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch files")
	flag.StringVar(&o.rev, "rev", "none", "git revision of the checkout, when known")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one benchmark run and returns its record and result.
func run(o options) (map[string]any, *result, error) {
	e := &env{seed: o.seed, smoke: o.smoke, clients: runtime.NumCPU()}
	mode := "e2e"
	if o.trace {
		mode = "traced"
	}
	if _, err := newBench(o.workload, e); err != nil {
		return nil, nil, err
	}
	e.dir = filepath.Join(o.work, fmt.Sprintf("run-%s-%s-%d-%d", o.workload, mode, o.seed, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(e.dir)
	rec := map[string]any{"env": environment(o, e)}
	var t tally
	var vals map[string]float64
	var defs []metricDef
	var err error
	if o.trace {
		defs = perLayer
		vals, err = tracedRun(o, e, rec, &t)
	} else {
		defs = endToEnd
		vals, err = timedRun(o, e, rec, &t)
	}
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	res.Correct = t.failed == 0 && t.attempted > 0
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	rec["error_rate"] = errRate
	if len(t.errs) > 0 {
		rec["errors"] = t.errs
		for _, msg := range t.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
		}
	}
	return rec, res, nil
}

// pick returns full, or smoke for the smoke test's short runs.
func (e *env) pick(full, smoke int) int {
	if e.smoke {
		return smoke
	}
	return full
}

// timedRun measures one workload's end-to-end metrics with tracing off.
func timedRun(o options, e *env, rec map[string]any, t *tally) (map[string]float64, error) {
	b, _ := newBench(o.workload, e)
	defer b.close()
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", o.workload, err)
	}
	// Set up several times and keep the median, so one slow start does
	// not decide setup_s; the last start stays up for the load. The
	// collection before each start clears the benchmark's own garbage
	// (inputs, references, the previous start) so that it is not
	// collected inside a timed start.
	var setups []float64
	for i := range e.pick(setupStarts, 2) {
		if i > 0 {
			b.stop()
		}
		runtime.GC()
		d, err := b.start()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer b.stop()

	warm := newPhase("warm", time.Duration(e.pick(1000, 200))*time.Millisecond, nil)
	if err := b.measure(warm); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", o.workload, err)
	}
	t.add(warm)
	runtime.GC()

	p := newPhase("run", time.Duration(o.seconds*float64(time.Second)), nil)
	smp := startSampler(&p.events)
	err := b.measure(p)
	end := time.Now()
	smp.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	t.add(p)

	events := p.events.Load()
	if events == 0 {
		return nil, fmt.Errorf("%s: no events were profiled", o.workload)
	}
	sess, rep := summarize(&p.session, p.start, end), summarize(&p.report, p.start, end)
	win := smp.windowed(10)
	facts := b.facts()
	facts["setup_samples_s"] = setups
	facts["elapsed_s"] = end.Sub(p.start).Seconds()
	facts["events"] = events
	facts["session"] = sess
	facts["report"] = rep
	facts["windows"] = win
	if late := p.late.sorted(); len(late) > 0 {
		facts["gen_late_p99_ms"] = quantile(late, 0.99)
	}
	rec["workload"] = facts
	return map[string]float64{
		"setup_s":           median(setups),
		"events_per_s":      win.EventsPerS,
		"session_p50_ms":    sess.P50,
		"session_tail_ms":   sess.Tail,
		"report_p50_ms":     rep.P50,
		"report_tail_ms":    rep.Tail,
		"cpu_ms_per_mevent": win.CPUmsPerMev,
		"heap_peak_mb":      win.HeapPeakMB,
	}, nil
}

// tracedRun makes a traced pass over every workload and gathers the
// per-layer metrics, each from the pass its definition names. The
// named workload's pass gets half the time, the others a quarter each.
func tracedRun(o options, e *env, rec map[string]any, t *tally) (map[string]float64, error) {
	vals := make(map[string]float64)
	facts := make(map[string]any)
	for _, w := range workloads {
		share := 0.25
		if w.name == o.workload {
			share = 0.5
		}
		d := time.Duration(o.seconds * share * float64(time.Second))
		f, err := tracedPass(w.name, e, d, vals, t)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		facts[w.name] = f
		runtime.GC()
	}
	rec["workloads"] = facts
	return vals, nil
}

func tracedPass(name string, e *env, d time.Duration, vals map[string]float64, t *tally) (map[string]any, error) {
	b, _ := newBench(name, e)
	defer b.close()
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if _, err := b.start(); err != nil {
		return nil, err
	}
	defer b.stop()
	warm := newPhase("twarm", time.Duration(e.pick(500, 100))*time.Millisecond, nil)
	if err := b.measure(warm); err != nil {
		return nil, err
	}
	t.add(warm)
	tr := newTracer()
	p := newPhase("trace", d, tr)
	out := make(map[string]float64)
	if err := b.trace(p, out); err != nil {
		return nil, err
	}
	t.add(p)
	for _, def := range perLayer {
		if v, ok := out[def.name]; ok && def.from == name {
			vals[def.name] = v
		}
	}
	if err := tr.write(filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("spans-%s-%d.jsonl", name, e.seed))); err != nil {
		return nil, err
	}
	facts := b.facts()
	facts["traced_s"] = d.Seconds()
	facts["spans"] = len(tr.spans)
	return facts, nil
}

// environment records where and on what the run was made.
func environment(o options, e *env) map[string]any {
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"git_rev":       o.rev,
		"source_sha256": sourceDigest(o.root),
		"seed":          o.seed,
		"workload":      o.workload,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"clients":       e.clients,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and go.mod files. It
// identifies the code under test where no git metadata is available.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "results") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Command benchengine guards the internal/engine unification: it
// measures the two throughput-critical adapter paths — parallel BTR2
// replay and daemon HTTP ingest — against the primitive the engine
// replaced (a plain, unsharded core.Profiler driven sequentially) and
// records the numbers as JSON.
//
// The point is regression detection, not peak-throughput bragging: the
// multi-layer refactor folded three bespoke shard pools (replay's
// biasRouter, serve's shardSet, the exp drivers' inline profilers)
// into one engine, and this artifact proves the shared core did not
// tax the paths it absorbed. Each cell's ratio against the plain
// profiler must clear a lenient floor (see -min-replay/-min-daemon);
// the floors are guardrails against gross regressions — batching gone
// wrong, a lock on the hot path — not tight performance contracts,
// because wall-clock on a loaded CI runner is noisy and parallel
// speedups are num_cpu-bounded (a single-core host measures pipeline
// overhead, not scaling).
//
// Usage:
//
//	go run ./tools/benchengine -o results/BENCH_engine.json [-iters 2]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/progs"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
)

// Run is one measured cell.
type Run struct {
	Path          string  `json:"path"` // plain-sequential | replay-btr2 | daemon-ingest
	Workers       int     `json:"workers"`
	Iters         int     `json:"iters"`
	BestSeconds   float64 `json:"best_seconds"`
	EventsPerSec  float64 `json:"events_per_sec"`
	RatioVsPlain  float64 `json:"ratio_vs_plain"`
	FloorApplied  float64 `json:"floor_applied,omitempty"`
	FloorOK       bool    `json:"floor_ok"`
	FloorExempt   bool    `json:"floor_exempt,omitempty"`
	ReportMatches bool    `json:"report_matches_plain"`
}

// MetricResult groups one metric's sweep.
type MetricResult struct {
	Metric string `json:"metric"`
	Runs   []Run  `json:"runs"`
}

// File is the BENCH_engine.json schema.
type File struct {
	Date       string         `json:"date"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Events     int64          `json:"events"`
	Note       string         `json:"note"`
	Metrics    []MetricResult `json:"metrics"`
}

func main() {
	out := flag.String("o", "results/BENCH_engine.json", "output file")
	kernel := flag.String("kernel", "fsm", "VM kernel whose trace drives the sweep")
	input := flag.String("input", "train", "kernel input set")
	iters := flag.Int("iters", 3, "timed repetitions per cell (best is kept)")
	warmup := flag.Int("warmup", 1, "discarded warm-up passes per cell")
	minReplay := flag.Float64("min-replay", 0.8, "throughput floor for replay cells, as a fraction of the plain profiler over the same stream")
	minDaemon := flag.Float64("min-daemon", 0.6, "throughput floor for daemon-ingest cells (HTTP transport included)")
	history := flag.String("history", "results/BENCH_history.jsonl", "append a dated one-line summary of this run (empty disables)")
	flag.Parse()

	inst, err := progs.StandardInput(*kernel, *input)
	if err != nil {
		fail(err)
	}
	rec := trace.NewRecorder(0)
	events := inst.Run(rec)

	var b1 bytes.Buffer
	w1, err := trace.NewWriter(&b1)
	if err != nil {
		fail(err)
	}
	w1.BranchBatch(rec.Events)
	if err := w1.Close(); err != nil {
		fail(err)
	}
	var b2 bytes.Buffer
	w2, err := trace.NewBTR2Writer(&b2, trace.BTR2Options{})
	if err != nil {
		fail(err)
	}
	w2.BranchBatch(rec.Events)
	if err := w2.Close(); err != nil {
		fail(err)
	}

	f := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   *kernel + "/" + *input,
		Events:     events,
		Note: "internal/engine unification guard: BTR2 replay and daemon HTTP ingest " +
			"through the shared engine vs the pre-engine primitive (plain unsharded " +
			"profiler fed by the sequential trace reader, decode included). Every " +
			"cell's report is byte-identical to the plain profiler's. Ratios are " +
			"wall-clock and num_cpu-bounded; the floors catch gross regressions in " +
			"the shared core, not micro-variance. Daemon cells additionally pay HTTP " +
			"transport, hence the lower floor.",
	}

	ok := true
	for _, metric := range []core.Metric{core.MetricAccuracy, core.MetricBias} {
		cfg := core.DefaultConfig()
		cfg.Metric = metric
		mr := MetricResult{Metric: metric.String()}

		// Baselines: the pre-engine primitive — a plain unsharded
		// profiler fed by the sequential trace reader, decode included,
		// exactly what the replay and serve paths did before the
		// unification. BTR2 decode for the replay cells, BTR1 for the
		// daemon cells (that is what each path ingests). The BTR2
		// baseline's report is the byte-identity reference everywhere.
		var wantJSON []byte
		baseline := func(path string, raw []byte) time.Duration {
			for i := 0; i < *warmup; i++ {
				plainProfile(raw, cfg)
			}
			best := time.Duration(1<<63 - 1)
			for i := 0; i < *iters; i++ {
				t0 := time.Now()
				rep := plainProfile(raw, cfg)
				if d := time.Since(t0); d < best {
					best = d
				}
				if wantJSON == nil {
					wantJSON, err = json.Marshal(rep)
					if err != nil {
						fail(err)
					}
				}
			}
			mr.Runs = append(mr.Runs, Run{
				Path: path, Workers: 1, Iters: *iters,
				BestSeconds:  best.Seconds(),
				EventsPerSec: float64(events) / best.Seconds(),
				RatioVsPlain: 1, FloorOK: true, FloorExempt: true,
				ReportMatches: true,
			})
			fmt.Printf("%s %s: best %.3fs, %.1fM events/s\n",
				metric, path, best.Seconds(), float64(events)/best.Seconds()/1e6)
			return best
		}
		plainBTR2 := baseline("plain-sequential-btr2", b2.Bytes())
		plainBTR1 := baseline("plain-sequential-btr1", b1.Bytes())

		measure := func(path string, workers int, floor float64, plainBest time.Duration, once func() (*core.Report, error)) {
			for i := 0; i < *warmup; i++ {
				if _, err := once(); err != nil {
					fail(err)
				}
			}
			best := time.Duration(1<<63 - 1)
			var rep *core.Report
			for i := 0; i < *iters; i++ {
				t0 := time.Now()
				r, err := once()
				if err != nil {
					fail(err)
				}
				if d := time.Since(t0); d < best {
					best = d
					rep = r
				}
			}
			got, err := json.Marshal(rep)
			if err != nil {
				fail(err)
			}
			r := Run{
				Path: path, Workers: workers, Iters: *iters,
				BestSeconds:   best.Seconds(),
				EventsPerSec:  float64(events) / best.Seconds(),
				RatioVsPlain:  plainBest.Seconds() / best.Seconds(),
				FloorApplied:  floor,
				ReportMatches: bytes.Equal(wantJSON, got),
			}
			r.FloorOK = r.RatioVsPlain >= floor
			if !r.FloorOK || !r.ReportMatches {
				ok = false
			}
			mr.Runs = append(mr.Runs, r)
			status := "ok"
			if !r.FloorOK {
				status = fmt.Sprintf("REGRESSION (floor %.2f)", floor)
			}
			if !r.ReportMatches {
				status += " REPORT-MISMATCH"
			}
			fmt.Printf("%s %s workers=%d: best %.3fs, %.1fM events/s (%.2fx vs plain) %s\n",
				metric, path, workers, r.BestSeconds, r.EventsPerSec/1e6, r.RatioVsPlain, status)
		}

		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			w := workers
			measure("replay-btr2", w, *minReplay, plainBTR2, func() (*core.Report, error) {
				return engine.ProfileStream(bytes.NewReader(b2.Bytes()), cfg,
					engine.Options{Workers: w, Predictor: "gshare-4KB"})
			})
			if runtime.GOMAXPROCS(0) == 1 {
				break // both cells would be identical
			}
		}

		// Daemon sessions profile on one goroutine each; there is no
		// per-session worker axis to sweep.
		measure("daemon-ingest", 1, *minDaemon, plainBTR1, func() (*core.Report, error) {
			return daemonIngest(cfg, b1.Bytes())
		})

		f.Metrics = append(f.Metrics, mr)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if *history != "" {
		if err := appendHistory(*history, f, ok); err != nil {
			fail(err)
		}
		fmt.Printf("appended %s\n", *history)
	}
	if !ok {
		fail(fmt.Errorf("throughput floor or report-identity violated (see %s)", *out))
	}
}

// historyCell is one measured path in a BENCH_history.jsonl record.
type historyCell struct {
	Metric       string  `json:"metric"`
	Path         string  `json:"path"`
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	RatioVsPlain float64 `json:"ratio_vs_plain"`
}

// appendHistory adds a dated one-line summary of the run to the
// append-only history log, so throughput evolution across commits is
// greppable without diffing the full BENCH_engine.json snapshots.
func appendHistory(path string, f File, ok bool) error {
	rec := struct {
		Date      string        `json:"date"`
		Tool      string        `json:"tool"`
		GoVersion string        `json:"go_version"`
		NumCPU    int           `json:"num_cpu"`
		Workload  string        `json:"workload"`
		Events    int64         `json:"events"`
		Pass      bool          `json:"pass"`
		Cells     []historyCell `json:"cells"`
	}{
		Date:      time.Now().UTC().Format(time.RFC3339),
		Tool:      "benchengine",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workload:  f.Workload,
		Events:    f.Events,
		Pass:      ok,
	}
	for _, mr := range f.Metrics {
		for _, r := range mr.Runs {
			rec.Cells = append(rec.Cells, historyCell{
				Metric: mr.Metric, Path: r.Path, Workers: r.Workers,
				EventsPerSec: r.EventsPerSec, RatioVsPlain: r.RatioVsPlain,
			})
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = fh.Write(append(line, '\n'))
	return err
}

// plainProfile is the pre-engine primitive: one unsharded profiler
// fed by the sequential trace reader (decode included, like the paths
// the engine replaced).
func plainProfile(raw []byte, cfg core.Config) *core.Report {
	var pred bpred.Predictor
	if cfg.Metric == core.MetricAccuracy {
		pred = bpred.MustNew("gshare-4KB")
	}
	prof, err := core.NewProfiler(cfg, pred)
	if err != nil {
		fail(err)
	}
	rd, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		fail(err)
	}
	if _, err := rd.Replay(prof); err != nil {
		fail(err)
	}
	return prof.Finish()
}

// daemonIngest boots a loopback daemon, posts the trace, and decodes
// the resulting report.
func daemonIngest(cfg core.Config, raw []byte) (*core.Report, error) {
	scfg := serve.DefaultConfig()
	scfg.Addr = "127.0.0.1:0"
	scfg.Predictor = "gshare-4KB"
	scfg.Profile = cfg
	scfg.DrainTimeout = 10 * time.Second
	srv, err := serve.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Start(); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	resp, err := http.Post("http://"+srv.Addr()+"/v1/ingest?session=bench",
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ingest status %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/v1/report?session=bench")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report status %d", resp.StatusCode)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchengine:", err)
	os.Exit(1)
}

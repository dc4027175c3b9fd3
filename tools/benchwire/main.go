// Command benchwire guards the binary wire protocol's reason to
// exist: it measures session ingest throughput into one profiled
// server over each transport — HTTP with a plain BTR1 body, HTTP with
// the gzip-wrapped body a bandwidth-conscious client would send, and
// the length-prefixed binary protocol over raw TCP — and records the
// numbers as JSON.
//
// Every cell streams the same kernel trace end to end (encode
// included, since each transport pays its own encoding) and must
// produce a /v1/report byte-identical to the plain-HTTP cell's. The
// wire cells must clear a throughput floor relative to HTTP+gzip (see
// -min-wire): lenient on purpose — wall-clock on a loaded runner is
// noisy — but enough to catch the protocol regressing into something
// slower than the transport it was built to beat.
//
// Usage:
//
//	go run ./tools/benchwire -o results/BENCH_wire.json [-iters 3]
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"twodprof/internal/progs"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

// Run is one measured transport cell.
type Run struct {
	Path            string  `json:"path"` // http-btr1 | http-btr1-gzip | wire | wire-shared-conn
	Iters           int     `json:"iters"`
	BestSeconds     float64 `json:"best_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	WireBytes       int64   `json:"wire_bytes,omitempty"` // payload bytes on the wire per session
	RatioVsHTTPGzip float64 `json:"ratio_vs_http_gzip"`
	FloorApplied    float64 `json:"floor_applied,omitempty"`
	FloorOK         bool    `json:"floor_ok"`
	FloorExempt     bool    `json:"floor_exempt,omitempty"`
	ReportMatches   bool    `json:"report_matches_http"`
}

// File is the BENCH_wire.json schema.
type File struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Events     int64  `json:"events"`
	Note       string `json:"note"`
	Runs       []Run  `json:"runs"`
}

func main() {
	out := flag.String("o", "results/BENCH_wire.json", "output file")
	kernel := flag.String("kernel", "fsm", "VM kernel whose trace drives the cells")
	input := flag.String("input", "train", "kernel input set")
	iters := flag.Int("iters", 3, "repetitions per cell (best is kept)")
	minWire := flag.Float64("min-wire", 0.9, "throughput floor for the wire cells, as a fraction of HTTP+gzip")
	flag.Parse()

	inst, err := progs.StandardInput(*kernel, *input)
	if err != nil {
		fail(err)
	}
	rec := trace.NewRecorder(0)
	events := inst.Run(rec)

	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.WireAddr = "127.0.0.1:0"
	cfg.MaxSessions = 4 * (*iters) * 4 // every cell's sessions stay queryable
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fail(err)
	}
	if _, err := srv.Start(); err != nil {
		fail(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	f := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   *kernel + "/" + *input,
		Events:     events,
		Note: "binary wire protocol guard: one profiled server, same kernel stream " +
			"end to end per transport, encode included. wire = one session per fresh " +
			"TCP conn; wire-shared-conn = sessions multiplexed over one persistent " +
			"conn (the cluster relay's shape). Reports are byte-identical across " +
			"cells. The floor is against HTTP+gzip and deliberately lenient; it " +
			"catches the protocol regressing below the transport it replaces, not " +
			"micro-variance.",
	}

	var seq int
	sid := func(path string) string {
		seq++
		return fmt.Sprintf("bw-%s-%d", path, seq)
	}
	report := func(id string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + "/v1/report?session=" + id)
		if err != nil {
			fail(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fail(fmt.Errorf("report %s: HTTP %d: %s", id, resp.StatusCode, body))
		}
		return body
	}

	// measure runs one cell: iters sessions, best wall time kept, the
	// last session's report captured for the identity check.
	var wantReport []byte
	ok := true
	measure := func(path string, floor float64, exempt bool, once func(id string) int64) {
		best := time.Duration(1<<63 - 1)
		var bytesOut int64
		var lastID string
		for i := 0; i < *iters; i++ {
			id := sid(path)
			t0 := time.Now()
			bytesOut = once(id)
			if d := time.Since(t0); d < best {
				best = d
			}
			lastID = id
		}
		got := report(lastID)
		if wantReport == nil {
			wantReport = got
		}
		r := Run{
			Path: path, Iters: *iters,
			BestSeconds:   best.Seconds(),
			EventsPerSec:  float64(events) / best.Seconds(),
			WireBytes:     bytesOut,
			FloorApplied:  floor,
			FloorExempt:   exempt,
			ReportMatches: bytes.Equal(got, wantReport),
		}
		f.Runs = append(f.Runs, r)
		fmt.Printf("%-16s best %.3fs, %5.1fM events/s, %7.1fKB/session\n",
			path, r.BestSeconds, r.EventsPerSec/1e6, float64(bytesOut)/1024)
	}

	measure("http-btr1", 0, true, func(id string) int64 {
		// Encode fresh each iteration: every transport pays its encoder.
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			fail(err)
		}
		w.BranchBatch(rec.Events)
		if err := w.Close(); err != nil {
			fail(err)
		}
		n := int64(buf.Len())
		httpIngest(srv.Addr(), id, &buf)
		return n
	})
	measure("http-btr1-gzip", 0, true, func(id string) int64 {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		w, err := trace.NewWriter(gz)
		if err != nil {
			fail(err)
		}
		w.BranchBatch(rec.Events)
		if err := w.Close(); err != nil {
			fail(err)
		}
		if err := gz.Close(); err != nil {
			fail(err)
		}
		n := int64(buf.Len())
		httpIngest(srv.Addr(), id, &buf)
		return n
	})
	wireOnce := func(c *wire.Client, id string) {
		sess, err := c.Begin(wire.BeginParams{ID: id})
		if err != nil {
			fail(err)
		}
		if err := sess.Send(rec.Events); err != nil {
			fail(err)
		}
		if sum, err := sess.End(); err != nil {
			fail(err)
		} else if sum.State != "done" {
			fail(fmt.Errorf("wire session %s ended %q: %s", id, sum.State, sum.Error))
		}
	}
	measure("wire", *minWire, false, func(id string) int64 {
		c, err := wire.Dial(srv.WireAddr(), 5*time.Second)
		if err != nil {
			fail(err)
		}
		defer c.Close()
		before := srv.Metrics().Wire.Bytes.Load()
		wireOnce(c, id)
		return srv.Metrics().Wire.Bytes.Load() - before
	})
	shared, err := wire.Dial(srv.WireAddr(), 5*time.Second)
	if err != nil {
		fail(err)
	}
	defer shared.Close()
	measure("wire-shared-conn", *minWire, false, func(id string) int64 {
		before := srv.Metrics().Wire.Bytes.Load()
		wireOnce(shared, id)
		return srv.Metrics().Wire.Bytes.Load() - before
	})

	// Ratios and floors resolve against the http-btr1-gzip cell.
	gzipBest := f.Runs[1].BestSeconds
	for i := range f.Runs {
		r := &f.Runs[i]
		r.RatioVsHTTPGzip = gzipBest / r.BestSeconds
		r.FloorOK = r.FloorExempt || r.RatioVsHTTPGzip >= r.FloorApplied
		status := "ok"
		if !r.FloorOK {
			status = fmt.Sprintf("REGRESSION (floor %.2f)", r.FloorApplied)
			ok = false
		}
		if !r.ReportMatches {
			status += " REPORT-MISMATCH"
			ok = false
		}
		fmt.Printf("%-16s %.2fx vs http+gzip %s\n", r.Path, r.RatioVsHTTPGzip, status)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if !ok {
		fail(fmt.Errorf("throughput floor or report-identity violated (see %s)", *out))
	}
}

func httpIngest(addr, id string, body io.Reader) {
	resp, err := http.Post("http://"+addr+"/v1/ingest?session="+id, "application/octet-stream", body)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("ingest %s: HTTP %d: %s", id, resp.StatusCode, msg))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchwire:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/spec"
	"twodprof/internal/trace"
)

// predictor is the front-end predictor of every accuracy-metric job.
const predictor = bpred.NameGshare4KB

// genEvents runs a synthetic SPEC model on an input set derived from
// the seed and tag, and returns exactly n events. pcOffset shifts every
// PC, which keeps the members of one collector group PC-disjoint.
func genEvents(bench string, seed uint64, tag string, n int, pcOffset trace.PC) ([]trace.Event, error) {
	b, err := spec.Get(bench)
	if err != nil {
		return nil, err
	}
	w := *b.Population().Workload(fmt.Sprintf("perfbench-%d-%s", seed, tag))
	w.DynTarget = int64(n)
	rec := trace.NewRecorder(n + 4096)
	w.Run(rec)
	if len(rec.Events) < n {
		return nil, fmt.Errorf("model %s emitted %d of %d events", bench, len(rec.Events), n)
	}
	events := rec.Events[:n:n]
	for i := range events {
		events[i].PC += pcOffset
	}
	return events, nil
}

// encodeBTR3 writes events as a BTR3 trace with the default chunking.
func encodeBTR3(events []trace.Event) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewBTR3Writer(&buf, trace.BTR2Options{})
	if err != nil {
		return nil, err
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reference profiles events with a sequential core.Profiler, one
// Branch call per event, and returns the finished profiler.
func reference(events []trace.Event, cfg core.Config) (*core.Profiler, error) {
	var pred bpred.Predictor
	if cfg.Metric == core.MetricAccuracy {
		var err error
		if pred, err = bpred.New(predictor); err != nil {
			return nil, err
		}
	}
	p, err := core.NewProfiler(cfg, pred)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		p.Branch(ev.PC, ev.Taken)
	}
	p.Finish()
	return p, nil
}

// served renders v as the daemon and router render responses: JSON
// with a two-space indent and a trailing newline.
func served(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// copyDir copies the regular files of src into a new directory dst and
// syncs them, so that whoever opens the copy next does not pay for
// writing it back.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (n int64, files []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, nil, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return n, files, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// replayModels are the SPEC models behind the replay traces, one trace
// each.
var replayModels = []string{"gcc", "twolf", "gap", "bzip2"}

// replayBench is the replay workload: back-to-back engine.ProfileStream
// jobs over a few BTR3 traces held in memory, from one goroutine.
type replayBench struct {
	e      *env
	cfg    core.Config
	files  []string
	refs   [][]byte // json.Marshal of each trace's reference report
	events []int64
	data   [][]byte // the opened traces, one buffer per file
}

func (b *replayBench) prepare() error {
	b.cfg = core.DefaultConfig()
	n := b.e.pick(2_000_000, 200_000)
	for i, model := range replayModels {
		events, err := genEvents(model, b.e.seed, fmt.Sprintf("replay-%d", i), n, 0)
		if err != nil {
			return err
		}
		raw, err := encodeBTR3(events)
		if err != nil {
			return err
		}
		path := filepath.Join(b.e.dir, fmt.Sprintf("replay-%d.btr3", i))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return err
		}
		p, err := reference(events, b.cfg)
		if err != nil {
			return err
		}
		ref, err := json.Marshal(p.Finish())
		if err != nil {
			return err
		}
		b.files = append(b.files, path)
		b.data = append(b.data, make([]byte, 0, len(raw)))
		b.refs = append(b.refs, ref)
		b.events = append(b.events, int64(n))
	}
	return nil
}

// start opens the traces: reads each file into the buffer the
// previous start used, so that a start does not also fault in fresh
// memory, and checks its header.
func (b *replayBench) start() (time.Duration, error) {
	t0 := time.Now()
	for i, f := range b.files {
		fh, err := os.Open(f)
		if err != nil {
			return 0, err
		}
		n, err := io.ReadFull(fh, b.data[i][:cap(b.data[i])])
		fh.Close()
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", f, err)
		}
		b.data[i] = b.data[i][:n]
		if _, err := trace.NewBTR3Reader(bytes.NewReader(b.data[i])); err != nil {
			return 0, fmt.Errorf("opening %s: %w", f, err)
		}
	}
	return time.Since(t0), nil
}

func (b *replayBench) stop() {}

func (b *replayBench) close() {}

func (b *replayBench) opts(workers int) engine.Options {
	return engine.Options{Workers: workers, Predictor: predictor}
}

// measure runs jobs until the deadline. A job is one ProfileStream call
// at GOMAXPROCS workers plus rendering its report; the report latency
// is the rendering alone.
func (b *replayBench) measure(p *phase) error {
	for i := 0; !p.over(); i++ {
		k := i % len(b.data)
		t0 := time.Now()
		rep, err := engine.ProfileStream(bytes.NewReader(b.data[k]), b.cfg, b.opts(runtime.GOMAXPROCS(0)))
		if !p.check(err == nil, "replay job over trace %d: %v", k, err) {
			continue
		}
		t1 := time.Now()
		js, err := json.Marshal(rep)
		t2 := time.Now()
		if !p.check(err == nil && bytes.Equal(js, b.refs[k]), "replay report of trace %d differs from the reference", k) {
			continue
		}
		p.events.Add(b.events[k])
		p.session.add(t2.Sub(t0))
		p.report.add(t2.Sub(t1))
	}
	return nil
}

// composed is one 1-worker job built from the layers' public
// functions: chunk read and decode, the predictor's SoA kernel into a
// hit bitmap, a shard profiler fed with outcome bitmaps and driven
// slice by slice, then Finish.
type composed struct {
	total  time.Duration
	hits   int64
	events int64
	js     []byte
	jsTime time.Duration
}

func (b *replayBench) composedJob(k int, tr *tracer, req int64) (composed, error) {
	var c composed
	t0 := time.Now()
	rd, err := trace.NewBTR3Reader(bytes.NewReader(b.data[k]))
	if err != nil {
		return c, err
	}
	pred, err := bpred.New(predictor)
	if err != nil {
		return c, err
	}
	// The shard profiler carries the predictor's name into the report,
	// as the engine's profilers do; a hardware profiler leaves it blank.
	prof, err := core.NewShardProfiler(b.cfg, pred.Name())
	if err != nil {
		return c, err
	}
	var chunk trace.Chunk
	var batch trace.SoABatch
	var hits []uint64
	var sliceExec int64
	for {
		s := tr.begin("trace.decode", req)
		err := rd.ReadChunkInto(&chunk)
		if err == nil {
			err = chunk.DecodeSoA(&batch)
		}
		s.end()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return c, err
		}
		n := batch.Len()
		words := (n + 63) / 64
		if cap(hits) < words {
			hits = make([]uint64, words)
		}
		hits = hits[:words]
		s = tr.begin("bpred.predict", req)
		bpred.ApplyBatchSoA(pred, batch.PCs, batch.Taken, hits)
		s.end()
		s = tr.begin("core.apply", req)
		for off := 0; off < n; {
			m := min(int(b.cfg.SliceSize-sliceExec), n-off)
			prof.OutcomeBatchSoA(batch.PCs[off:off+m], batch.Taken, hits, off)
			off += m
			if sliceExec += int64(m); sliceExec == b.cfg.SliceSize {
				prof.EndSlice()
				sliceExec = 0
			}
		}
		s.end()
		if n%64 != 0 {
			hits[words-1] &= 1<<uint(n%64) - 1
		}
		for _, w := range hits {
			c.hits += int64(bits.OnesCount64(w))
		}
		c.events += int64(n)
	}
	s := tr.begin("core.finish", req)
	rep := prof.Finish()
	s.end()
	c.total = time.Since(t0)
	t1 := time.Now()
	c.js, err = json.Marshal(rep)
	c.jsTime = time.Since(t1)
	return c, err
}

// engineJob drives an Engine at GOMAXPROCS workers with decoded chunks
// and times its BranchBatchSoA and Finish calls.
func (b *replayBench) engineJob(k int, tr *tracer, req int64, depths *[]float64) ([]byte, error) {
	eng, err := engine.New(b.cfg, b.opts(runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, err
	}
	rd, err := trace.NewBTR3Reader(bytes.NewReader(b.data[k]))
	if err != nil {
		eng.Abort()
		return nil, err
	}
	var chunk trace.Chunk
	var batch trace.SoABatch
	for {
		err := rd.ReadChunkInto(&chunk)
		if err == nil {
			err = chunk.DecodeSoA(&batch)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			eng.Abort()
			return nil, err
		}
		s := tr.begin("engine.batch", req)
		eng.BranchBatchSoA(&batch)
		s.end()
		sum := 0
		for _, d := range eng.QueueDepths() {
			sum += d
		}
		*depths = append(*depths, float64(sum))
	}
	s := tr.begin("engine.finish", req)
	rep, err := eng.Finish()
	s.end()
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// trace alternates, per round over one trace, the traced composition,
// the same composition untraced, the traced engine-driven job and
// ProfileStream at GOMAXPROCS and at one worker. Every report must be
// byte-identical to the reference.
func (b *replayBench) trace(p *phase, out map[string]float64) error {
	tr := p.tr
	var tracedTotal, plainTotal, jsTime, jsBytes, jobN, job1, depths []float64
	var hits, events int64
	var bytesIn, eventsIn float64
	workers := runtime.GOMAXPROCS(0)
	for round := int64(1); !p.over() || round <= 2; round++ {
		k := int(round) % len(b.data)
		c, err := b.composedJob(k, tr, round)
		if !p.check(err == nil && bytes.Equal(c.js, b.refs[k]), "traced composition of trace %d differs from the reference (%v)", k, err) {
			return fmt.Errorf("traced composition is not byte-identical to engine.ProfileStream")
		}
		tracedTotal = append(tracedTotal, c.total.Seconds())
		jsTime = append(jsTime, c.jsTime.Seconds())
		jsBytes = append(jsBytes, float64(len(c.js)))
		hits += c.hits
		events += c.events
		bytesIn += float64(len(b.data[k]))
		eventsIn += float64(c.events)

		if c, err = b.composedJob(k, nil, 0); !p.check(err == nil && bytes.Equal(c.js, b.refs[k]), "untraced composition of trace %d differs (%v)", k, err) {
			continue
		}
		plainTotal = append(plainTotal, c.total.Seconds())

		js, err := b.engineJob(k, tr, -round, &depths)
		p.check(err == nil && bytes.Equal(js, b.refs[k]), "engine-driven job over trace %d differs (%v)", k, err)

		for _, w := range []int{workers, 1} {
			t0 := time.Now()
			rep, err := engine.ProfileStream(bytes.NewReader(b.data[k]), b.cfg, b.opts(w))
			d := time.Since(t0).Seconds()
			if err == nil {
				js, err = json.Marshal(rep)
			}
			if !p.check(err == nil && bytes.Equal(js, b.refs[k]), "ProfileStream at %d workers over trace %d differs (%v)", w, k, err) {
				continue
			}
			if w == workers {
				jobN = append(jobN, d)
			} else {
				job1 = append(job1, d)
			}
		}
	}
	byReq := tr.perRequest()
	decode := medianPerRequest(byReq, "trace.decode")
	predict := medianPerRequest(byReq, "bpred.predict")
	apply := medianPerRequest(byReq, "core.apply")
	finish := medianPerRequest(byReq, "core.finish")
	layers := decode + predict + apply + finish
	out["trace.decode_s"] = decode
	out["trace.decode_events_per_s"] = eventsIn / float64(len(tracedTotal)) / decode
	out["trace.bytes_per_event"] = bytesIn / eventsIn
	out["bpred.predict_s"] = predict
	out["bpred.hit_ratio"] = float64(hits) / float64(events)
	out["core.apply_s"] = apply
	out["core.finish_s"] = finish
	out["core.report_json_s"] = median(jsTime)
	out["core.report_json_bytes"] = median(jsBytes)
	out["engine.batch_s"] = medianPerRequest(byReq, "engine.batch")
	out["engine.finish_s"] = medianPerRequest(byReq, "engine.finish")
	out["engine.queue_depth_mean"] = mean(depths)
	// Both sides are one worker: the composition's layers and
	// ProfileStream at Workers=1. The parallel effect is
	// engine.workers_speedup.
	out["engine.overhead_s"] = median(job1) - layers
	out["engine.workers_speedup"] = median(job1) / median(jobN)
	out["bench.trace_overhead_frac"] = (median(tracedTotal) - median(plainTotal)) / median(plainTotal)
	fmt.Fprintf(os.Stderr, "replay accounting at 1 worker: ProfileStream job %.2f ms = decode %.2f + predict %.2f + apply %.2f + finish %.2f + engine overhead %.2f ms; "+
		"untraced composition %.2f ms (%.2f ms outside the timed calls); ProfileStream at %d workers %.2f ms\n",
		median(job1)*1e3, decode*1e3, predict*1e3, apply*1e3, finish*1e3, out["engine.overhead_s"]*1e3,
		median(plainTotal)*1e3, (median(plainTotal)-layers)*1e3, workers, median(jobN)*1e3)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func (b *replayBench) facts() map[string]any {
	return map[string]any{
		"loop":               "closed, 1 client goroutine",
		"traces":             len(b.files),
		"events_per_session": b.events[0],
		"format":             "btr3",
		"metric":             "accuracy",
		"predictor":          predictor,
		"workers":            runtime.GOMAXPROCS(0),
		"report_latency":     "json rendering of each finished job's report",
	}
}

package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/synth"
	"twodprof/internal/trace"
)

// ProfileStream tests: the offline replay entry point across trace
// formats and decode-pool sizes.

// streamEvents records one synthetic workload with a wide-ish static
// footprint, memoised across tests.
var (
	streamEventsOnce sync.Once
	streamEventsVal  []trace.Event
)

func streamEvents(t testing.TB) []trace.Event {
	t.Helper()
	streamEventsOnce.Do(func() {
		cfg := synth.DefaultPopulationConfig("replay-test", 0xabcd)
		cfg.NumSites = 800
		cfg.DynTarget = 300_000
		wl := synth.NewPopulation(cfg).Workload("train")
		rec := trace.NewRecorder(int(cfg.DynTarget))
		wl.Run(rec)
		streamEventsVal = rec.Events
	})
	return streamEventsVal
}

// streamConfig uses a slice size small enough for a few dozen slices
// per run, and deliberately not a power of two so "unaligned" chunk
// sizes exist.
func streamConfig(metric core.Metric) core.Config {
	cfg := core.DefaultConfig()
	cfg.SliceSize = 5000
	cfg.ExecThreshold = 10
	cfg.Metric = metric
	return cfg
}

func encodeChunked(t testing.TB, events []trace.Event, opts trace.BTR2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewBTR2Writer(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.BranchBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// profileBytes runs ProfileStream over an in-memory trace.
func profileBytes(raw []byte, cfg core.Config, predictor string, workers int) (*core.Report, error) {
	return engine.ProfileStream(bytes.NewReader(raw), cfg, engine.Options{Workers: workers, Predictor: predictor})
}

// TestParallelMatchesSequential is the pipeline's core determinism
// claim: parallel BTR2 replay is byte-identical (as JSON) to the
// sequential BTR1 replay of the same events, for both metrics, at
// several worker counts, with chunk sizes both aligned and not aligned
// to the slice size.
func TestParallelMatchesSequential(t *testing.T) {
	events := streamEvents(t)
	btr1 := encodeBTR1(t, events)

	for _, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
		cfg := streamConfig(metric)
		ref, err := profileBytes(btr1, cfg, matrixPredictor, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := marshal(t, ref)

		// 5000 divides 10000 (chunk boundary = slice boundary); 4093 is
		// prime, so every slice boundary lands mid-chunk somewhere.
		for _, chunk := range []int{10000, 4093} {
			for _, compress := range []bool{false, true} {
				if compress && chunk == 10000 {
					continue // one compressed column is enough
				}
				btr2 := encodeChunked(t, events, trace.BTR2Options{ChunkEvents: chunk, Compress: compress})
				for _, workers := range []int{1, 4, 8} {
					name := fmt.Sprintf("%s/chunk=%d/z=%v/workers=%d", metric, chunk, compress, workers)
					rep, err := profileBytes(btr2, cfg, matrixPredictor, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := marshal(t, rep); !bytes.Equal(got, want) {
						t.Errorf("%s: report differs from sequential BTR1 replay", name)
					}
				}
			}
		}
	}
}

// TestBTR1SequentialFallback checks a BTR1 stream profiles correctly
// even when parallelism was requested (no chunk framing to exploit).
func TestBTR1SequentialFallback(t *testing.T) {
	btr1 := encodeBTR1(t, streamEvents(t))
	cfg := streamConfig(core.MetricAccuracy)
	ref, err := profileBytes(btr1, cfg, matrixPredictor, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := profileBytes(btr1, cfg, matrixPredictor, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, ref), marshal(t, rep)) {
		t.Fatal("BTR1 report depends on the Workers option")
	}
}

// TestPredictorValidated mirrors the profile2d contract: a bad
// predictor name fails loudly in both metric modes.
func TestPredictorValidated(t *testing.T) {
	btr2 := encodeChunked(t, streamEvents(t)[:1000], trace.BTR2Options{})
	for _, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
		if _, err := profileBytes(btr2, streamConfig(metric), "no-such-predictor", 0); err == nil {
			t.Errorf("metric %s accepted a bad predictor name", metric)
		}
	}
	// Bias with an empty name is edge profiling: fine.
	if _, err := profileBytes(btr2, streamConfig(core.MetricBias), "", 0); err != nil {
		t.Errorf("bias with empty predictor: %v", err)
	}
}

// TestTruncatedStreamFails checks a stream cut mid-chunk surfaces an
// error rather than a silently short report.
func TestTruncatedStreamFails(t *testing.T) {
	btr2 := encodeChunked(t, streamEvents(t)[:50000], trace.BTR2Options{ChunkEvents: 4096})
	cut := btr2[:len(btr2)/2]
	if _, err := profileBytes(cut, streamConfig(core.MetricBias), "", 4); err == nil {
		t.Fatal("mid-chunk truncation produced a report with no error")
	}
}

// TestParallelReplayHammer drives the full pipeline concurrently; it is
// the -race workout for the decode pool and the reorder stage.
func TestParallelReplayHammer(t *testing.T) {
	events := streamEvents(t)
	if testing.Short() {
		events = events[:60_000]
	}
	btr2 := encodeChunked(t, events, trace.BTR2Options{ChunkEvents: 4093})
	var wants [2][]byte
	for i, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
		ref, err := profileBytes(btr2, streamConfig(metric), matrixPredictor, 1)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = marshal(t, ref)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 4; g++ {
		for i, metric := range []core.Metric{core.MetricBias, core.MetricAccuracy} {
			wg.Add(1)
			go func(g, i int, metric core.Metric) {
				defer wg.Done()
				workers := 2 + g%3*3 // 2, 5, 8, 2
				rep, err := profileBytes(btr2, streamConfig(metric), matrixPredictor, workers)
				if err != nil {
					errc <- fmt.Errorf("hammer %s workers=%d: %w", metric, workers, err)
					return
				}
				if !bytes.Equal(marshal(t, rep), wants[i]) {
					errc <- fmt.Errorf("hammer %s workers=%d: report differs", metric, workers)
				}
			}(g, i, metric)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestProfileStaticAnnotation: Options.Static attaches the prefilter
// column on every replay path (sequential BTR1, parallel BTR2 in both
// metrics), restricted to observed branches, and its presence changes
// nothing else about the report.
func TestProfileStaticAnnotation(t *testing.T) {
	events := streamEvents(t)
	static := map[trace.PC]string{
		events[0].PC: "input-dependent",
		1 << 40:      "const-taken", // never observed: must be dropped
	}
	btr2 := encodeChunked(t, events, trace.BTR2Options{ChunkEvents: 4096})
	cases := []struct {
		name    string
		raw     []byte
		metric  core.Metric
		workers int
	}{
		{"btr1-seq", encodeBTR1(t, events), core.MetricAccuracy, 1},
		{"btr2-acc-par", btr2, core.MetricAccuracy, 4},
		{"btr2-bias-par", btr2, core.MetricBias, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := streamConfig(tc.metric)
			opts := engine.Options{Workers: tc.workers, Predictor: matrixPredictor}
			plain, err := engine.ProfileStream(bytes.NewReader(tc.raw), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if plain.StaticClass != nil {
				t.Fatalf("unannotated replay has StaticClass %v", plain.StaticClass)
			}
			opts.Static = static
			ann, err := engine.ProfileStream(bytes.NewReader(tc.raw), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := ann.StaticClass[events[0].PC]; got != "input-dependent" {
				t.Errorf("StaticClass[%d] = %q", events[0].PC, got)
			}
			if _, ok := ann.StaticClass[1<<40]; ok {
				t.Error("unobserved PC kept in annotation")
			}
			// The annotation must not perturb the profile itself.
			ann.StaticClass = nil
			if !bytes.Equal(marshal(t, plain), marshal(t, ann)) {
				t.Error("annotation changed the underlying report")
			}
		})
	}
}

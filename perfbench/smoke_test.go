package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, and that every per-layer
// metric names what it should move, where, and which pass measures it.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	var listed [][2]string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.listed {
			listed = append(listed, [2]string{w.name, w.why})
		}
	}
	var declared [][2]string
	for _, w := range b.Workloads {
		declared = append(declared, [2]string{w.Name, w.Why})
	}
	if !reflect.DeepEqual(declared, listed) {
		t.Errorf("workloads differ:\n json    %v\n program %v", declared, listed)
	}
	var e2e, layer [][3]string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, [3]string{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, [3]string{m.Name, m.Unit, m.Better})
	}
	var wantE2E, wantLayer [][3]string
	for i, d := range endToEnd {
		wantE2E = append(wantE2E, [3]string{d.name, d.unit, d.better})
		if i < len(b.EndToEnd) && b.EndToEnd[i].Bound != d.bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", d.name, b.EndToEnd[i].Bound, d.bound)
		}
	}
	for _, d := range perLayer {
		wantLayer = append(wantLayer, [3]string{d.name, d.unit, d.better})
		if d.moves == "" || len(d.on) == 0 || !slices.Contains(names, d.from) {
			t.Errorf("%s: needs what it moves, where, and a measuring pass (from %q)", d.name, d.from)
		}
		for _, w := range d.on {
			if !slices.Contains(names, w) {
				t.Errorf("%s: unknown workload %q", d.name, w)
			}
		}
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end metrics differ:\n json    %v\n program %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("per_layer metrics differ:\n json    %v\n program %v", layer, wantLayer)
	}
}

// TestSmoke runs every workload briefly on short inputs and checks that
// each declared metric is printed with its unit and that no operation
// failed. The traced run fails unless the replay composition built
// from the layers' public functions is byte-identical to
// engine.ProfileStream.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	work := t.TempDir()
	check := func(o options, defs []metricDef) {
		t.Helper()
		rec, res, err := run(o)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || rec["error_rate"] != 0.0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
				o.workload, o.trace, res.Correct, res.Attempted, res.Failed, rec["errors"])
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", o.workload, o.trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", o.workload, o.trace, d.name, v, d.unit)
			}
		}
	}
	for _, w := range workloads {
		check(options{workload: w.name, seed: 7, seconds: 1, smoke: true, root: "..", work: work}, endToEnd)
	}
	check(options{workload: wReplay, seed: 7, seconds: 2, trace: true, smoke: true, root: "..", work: work}, perLayer)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}, {3000, 99.6}, {100000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestWindowedTail checks that a slow stretch covering one window of
// four moves the whole-run tail but not the reported one.
func TestWindowedTail(t *testing.T) {
	var s samples
	t0 := time.Now()
	for k := range tailWindows {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if k == 2 {
				v += 1000
			}
			s.at = append(s.at, t0.Add(time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond))
			s.v = append(s.v, v)
		}
	}
	d := summarize(&s, t0, t0.Add(tailWindows*time.Second))
	if d.N != 400 || d.Tail != 90 || d.RunTail != 1090 || !reflect.DeepEqual(d.WindowN, []int{100, 100, 100, 100}) {
		t.Errorf("summarize = %+v, want n 400, tail 90, run tail 1090, 100 samples a window", d)
	}
}

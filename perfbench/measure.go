package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// samples collects durations in milliseconds with the time each was
// taken; safe for concurrent use.
type samples struct {
	mu sync.Mutex
	at []time.Time
	v  []float64
}

func (s *samples) add(d time.Duration) {
	now := time.Now()
	s.mu.Lock()
	s.at = append(s.at, now)
	s.v = append(s.v, float64(d)/1e6)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// windowed splits the samples into n windows of equal length between
// from and to, by the time each was taken, and returns each window's
// values sorted.
func (s *samples) windowed(from, to time.Time, n int) [][]float64 {
	out := make([][]float64, n)
	span := to.Sub(from)
	s.mu.Lock()
	for i, at := range s.at {
		k := 0
		if span > 0 {
			k = min(max(int(int64(n)*int64(at.Sub(from))/int64(span)), 0), n-1)
		}
		out[k] = append(out[k], s.v[i])
	}
	s.mu.Unlock()
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted values (0 when
// there are none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile is the highest percentile, in tenths, that leaves at
// least ten of n samples beyond it; never below the median.
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	p := math.Floor(1000*(1-10/float64(n))) / 10
	return min(max(p, 50), 99.9)
}

// tail is the value at tailPercentile of sorted values.
func tail(sorted []float64) float64 {
	return quantile(sorted, tailPercentile(len(sorted))/100)
}

// tailWindows is how many windows of a timed phase the reported tail
// is the median over. The host the benchmark runs on is shared, and
// stretches of seconds in which it gives the process less CPU slow a
// few percent of the operations of a run. The whole-run tail, ten
// samples from the top, moved with those stretches by more than the
// metrics' bounds between runs of the same code; the median over
// windows of each window's tail does not, while each window's tail
// stays beyond p93 at the benchmark's sample counts.
const tailWindows = 4

// dist summarises one latency distribution: its sample count, median
// and tail. The tail is the median over tailWindows equal windows of
// the phase of the value, in each window, at the highest percentile
// that leaves at least ten of the window's samples beyond it. The
// whole-run tail, by the same rule, is kept for comparison.
type dist struct {
	N           int       `json:"n"`
	P50         float64   `json:"p50_ms"`
	Tail        float64   `json:"tail_ms"`
	WindowN     []int     `json:"window_n"`
	WindowPct   []float64 `json:"window_tail_pct"`
	WindowTails []float64 `json:"window_tail_ms"`
	RunTailPct  float64   `json:"run_tail_pct"`
	RunTail     float64   `json:"run_tail_ms"`
}

// summarize describes the samples taken between from and to.
func summarize(s *samples, from, to time.Time) dist {
	v := s.sorted()
	d := dist{N: len(v), P50: quantile(v, 0.5), RunTailPct: tailPercentile(len(v)), RunTail: tail(v)}
	for _, w := range s.windowed(from, to, tailWindows) {
		d.WindowN = append(d.WindowN, len(w))
		d.WindowPct = append(d.WindowPct, tailPercentile(len(w)))
		d.WindowTails = append(d.WindowTails, tail(w))
	}
	d.Tail = median(d.WindowTails)
	return d
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is one sampler reading: the phase's event counter, the
// process's CPU time and the Go heap in use.
type mark struct {
	t      time.Time
	events int64
	cpu    time.Duration
	heap   uint64
}

// sampler reads marks on a fixed tick, from its own goroutine, until
// finish is called.
type sampler struct {
	events *atomic.Int64
	stop   chan struct{}
	done   chan struct{}
	marks  []mark
}

const sampleEvery = 5 * time.Millisecond

func startSampler(events *atomic.Int64) *sampler {
	s := &sampler{events: events, stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.take()
				return
			case <-t.C:
				s.take()
			}
		}
	}()
	return s
}

var heapNames = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// take records one mark. The heap figure is live and dead objects plus
// the free space inside in-use spans, i.e. MemStats.HeapInuse.
func (s *sampler) take() {
	ms := make([]metrics.Sample, len(heapNames))
	for i, n := range heapNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var heap uint64
	for _, m := range ms {
		if m.Value.Kind() == metrics.KindUint64 {
			heap += m.Value.Uint64()
		}
	}
	s.marks = append(s.marks, mark{time.Now(), s.events.Load(), cpuTime(), heap})
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// windows is what the sampler saw, per window and over the whole span.
type windows struct {
	EventsPerS    float64 `json:"events_per_s"`      // median over windows
	CPUmsPerMev   float64 `json:"cpu_ms_per_mevent"` // median over windows
	HeapPeakMB    float64 `json:"heap_peak_mb"`      // whole span
	RunEventsPerS float64 `json:"run_events_per_s"`
	RunCPUmsPerMv float64 `json:"run_cpu_ms_per_mevent"`
}

// windowed splits the sampled span into n equal windows and reports
// the median over windows of the event rate and of CPU time per event,
// so a burst of outside load moves one window rather than the whole
// figure, and the heap peak of the whole span. The whole-span rates go
// into the record.
func (s *sampler) windowed(n int) windows {
	var w windows
	if len(s.marks) < 2 {
		return w
	}
	first, last := s.marks[0], s.marks[len(s.marks)-1]
	perMev := func(cpu time.Duration, events int64) float64 {
		return float64(cpu) / 1e6 / (float64(events) / 1e6)
	}
	step := last.t.Sub(first.t) / time.Duration(n)
	var rates, cpus []float64
	j := 0
	for k := range n {
		end := first.t.Add(time.Duration(k+1) * step)
		a := s.marks[j]
		for j < len(s.marks)-1 && !s.marks[j+1].t.After(end) {
			j++
		}
		b := s.marks[j]
		if dt := b.t.Sub(a.t).Seconds(); dt > 0 {
			rates = append(rates, float64(b.events-a.events)/dt)
		}
		if b.events > a.events {
			cpus = append(cpus, perMev(b.cpu-a.cpu, b.events-a.events))
		}
	}
	var peak uint64
	for _, m := range s.marks {
		peak = max(peak, m.heap)
	}
	w.EventsPerS, w.CPUmsPerMev, w.HeapPeakMB = median(rates), median(cpus), float64(peak)/(1<<20)
	if events := last.events - first.events; events > 0 {
		w.RunEventsPerS = float64(events) / last.t.Sub(first.t).Seconds()
		w.RunCPUmsPerMv = perMev(last.cpu-first.cpu, events)
	}
	return w
}

// phase is one timed stretch of a workload: its deadline, the
// counters and latency samples its clients fill, and its failures.
type phase struct {
	tag      string // prefix for session ids, unique per phase
	start    time.Time
	deadline time.Time
	tr       *tracer // nil on untraced phases

	events    atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	session   samples // session latency
	report    samples // report latency
	late      samples // open-loop generator lateness

	mu   sync.Mutex
	errs []string
}

func newPhase(tag string, d time.Duration, tr *tracer) *phase {
	now := time.Now()
	return &phase{tag: tag, start: now, deadline: now.Add(d), tr: tr}
}

func (p *phase) over() bool { return !time.Now().Before(p.deadline) }

// check counts one attempted operation and, when ok is false, a failed
// one with its reason.
func (p *phase) check(ok bool, format string, args ...any) bool {
	p.attempted.Add(1)
	if !ok {
		p.failed.Add(1)
		p.mu.Lock()
		if len(p.errs) < 8 {
			p.errs = append(p.errs, fmt.Sprintf(format, args...))
		}
		p.mu.Unlock()
	}
	return ok
}

// span is one traced call: its name, its interval in nanoseconds from
// the tracer's epoch and the request (job or session) it belongs to.
type span struct {
	Name  string `json:"name"`
	Req   int64  `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is an unfinished span.
type open struct {
	name  string
	req   int64
	start time.Time
	tr    *tracer
}

// begin opens a span of request req.
func (t *tracer) begin(name string, req int64) open {
	return open{name: name, req: req, start: time.Now(), tr: t}
}

// end closes the span and returns its duration.
func (o open) end() time.Duration {
	d := time.Since(o.start)
	if o.tr != nil {
		from := int64(o.start.Sub(o.tr.epoch))
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, span{o.name, o.req, from, from + int64(d)})
		o.tr.mu.Unlock()
	}
	return d
}

// perRequest returns, per request, each span name's summed duration in
// seconds.
func (t *tracer) perRequest() map[int64]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]map[string]float64)
	for _, s := range t.spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]float64)
			out[s.Req] = m
		}
		m[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// medianPerRequest is the median over requests carrying span name of
// that name's summed duration per request, in seconds.
func medianPerRequest(byReq map[int64]map[string]float64, name string) float64 {
	var v []float64
	for _, m := range byReq {
		if x, ok := m[name]; ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// get fetches url and returns the status and the whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends body to url and returns the status and the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// scrape reads a text-format /metrics page into name (with labels) ->
// value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	status, body, err := get(c, url)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// newHTTPClient returns a client with its own keep-alive pool, sized
// for the benchmark's few concurrent callers.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

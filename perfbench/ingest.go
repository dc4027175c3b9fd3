package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twodprof/internal/core"
	"twodprof/internal/serve"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
	"twodprof/internal/wire"
)

// ingestModels are the SPEC models behind the clients' streams.
var ingestModels = []string{"gcc", "crafty", "twolf", "gap"}

const (
	sendBatch      = 8192                  // events per Session.Send
	livePeriod     = 25 * time.Millisecond // open-loop live-report reads
	templateDone   = 4                     // finished sessions in the data-dir template
	templateEvents = 100_000               // events per finished template session
	// compactEvery is the janitor's sweep interval in timed starts.
	// Each sweep compacts every log finished since the last one and
	// stalls the sessions streaming beside it. The default, 15s, sweeps
	// twice in a run, and whether the second stall fell inside the
	// timed phase decided session_tail_ms; sweeping every second spreads
	// the same compaction work evenly over the run.
	compactEvery = time.Second
	// tornEvents is the length of the torn template session, whose
	// replay is most of a start's work. It is long enough that the
	// replay, not the few fsyncs of a start, sets setup_s.
	tornEvents = 1_000_000
)

// ingestBench is the durable-ingest workload: a daemon with a data
// directory, closed-loop wire clients streaming long accuracy sessions,
// and an open-loop reader of one in-flight session's live report.
type ingestBench struct {
	e       *env
	streams [][]trace.Event
	refs    [][]byte // served rendering of each stream's reference report
	tmpl    string
	tmplN   int
	tmplB   int64
	starts  int
	dataDir string
	srv     *serve.Server
	http    *http.Client
}

func (b *ingestBench) prepare() error {
	n := b.e.pick(2_000_000, 200_000)
	for c := range b.e.clients {
		events, err := genEvents(ingestModels[c%len(ingestModels)], b.e.seed, fmt.Sprintf("ingest-%d", c), n, 0)
		if err != nil {
			return err
		}
		p, err := reference(events, core.DefaultConfig())
		if err != nil {
			return err
		}
		ref, err := served(p.Finish())
		if err != nil {
			return err
		}
		b.streams = append(b.streams, events)
		b.refs = append(b.refs, ref)
	}
	b.http = newHTTPClient()
	return b.buildTemplate()
}

func (b *ingestBench) config(dir string) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.WireAddr = "127.0.0.1:0"
	cfg.DataDir = dir
	return cfg
}

// buildTemplate makes the seeded data directory every start recovers:
// finished sessions plus one log torn mid-stream, copied while its
// session was still streaming and cut inside its last record.
func (b *ingestBench) buildTemplate() error {
	src := filepath.Join(b.e.dir, "template-src")
	b.tmpl = filepath.Join(b.e.dir, "template")
	srv, err := serve.NewServer(b.config(src))
	if err != nil {
		return err
	}
	if _, err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		os.RemoveAll(src)
	}()
	wc, err := wire.Dial(srv.WireAddr(), 10*time.Second)
	if err != nil {
		return err
	}
	defer wc.Close()
	for i := range templateDone {
		s, err := wc.Begin(wire.BeginParams{ID: fmt.Sprintf("tmpl-%d", i), Metric: "accuracy"})
		if err != nil {
			return err
		}
		if err := s.Send(b.streams[i%len(b.streams)][:templateEvents]); err != nil {
			return err
		}
		if _, err := s.End(); err != nil {
			return err
		}
	}
	_, finished, err := dirBytes(src)
	if err != nil {
		return err
	}
	torn, err := wc.Begin(wire.BeginParams{ID: "tmpl-torn", Metric: "accuracy"})
	if err != nil {
		return err
	}
	defer torn.Abort()
	if err := torn.Send(b.streams[0][:b.e.pick(tornEvents, templateEvents)]); err != nil {
		return err
	}
	// Let the interval flusher write the streamed records out.
	time.Sleep(3 * wal.DefaultSyncInterval)
	if err := copyDir(src, b.tmpl); err != nil {
		return err
	}
	_, all, err := dirBytes(b.tmpl)
	if err != nil {
		return err
	}
	for _, f := range all {
		if slices.Contains(finished, filepath.Join(src, filepath.Base(f))) {
			continue
		}
		info, err := os.Stat(f)
		if err != nil {
			return err
		}
		if err := os.Truncate(f, info.Size()-5); err != nil {
			return err
		}
	}
	b.tmplB, all, err = dirBytes(b.tmpl)
	b.tmplN = len(all)
	if b.tmplN != templateDone+1 {
		return fmt.Errorf("template holds %d logs, want %d", b.tmplN, templateDone+1)
	}
	return err
}

// start copies a fresh data directory from the template (untimed) and
// starts the daemon on it; setup_s counts NewServer, which recovers
// every logged session, and Start.
func (b *ingestBench) start() (time.Duration, error) {
	b.starts++
	b.dataDir = filepath.Join(b.e.dir, fmt.Sprintf("data-%d", b.starts))
	if err := copyDir(b.tmpl, b.dataDir); err != nil {
		return 0, err
	}
	cfg := b.config(b.dataDir)
	cfg.CompactInterval = compactEvery
	t0 := time.Now()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := srv.Start(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	b.srv = srv
	if got := srv.Metrics().SessionsRecovered.Load(); got != int64(b.tmplN) {
		return 0, fmt.Errorf("daemon recovered %d sessions, want %d", got, b.tmplN)
	}
	return d, nil
}

func (b *ingestBench) stop() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	b.srv = nil
	b.http.CloseIdleConnections()
	os.RemoveAll(b.dataDir)
}

func (b *ingestBench) close() {
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
}

// clientStats collects the traced client-side layer timings.
type clientStats struct {
	begin, end, report, send samples // send: per-session total, ms
}

// measure runs the closed-loop clients and the open-loop live reader
// until the deadline.
func (b *ingestBench) measure(p *phase) error {
	return b.drive(p, nil)
}

func (b *ingestBench) drive(p *phase, cs *clientStats) error {
	var live atomic.Pointer[string] // client 0's in-flight session
	var wg sync.WaitGroup
	errc := make(chan error, b.e.clients)
	for c := range b.e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.client(p, c, &live, cs); err != nil {
				errc <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.reader(p, &live)
	}()
	wg.Wait()
	close(errc)
	return <-errc
}

// client streams whole sessions back to back over one connection:
// Begin, Send in fixed batches, End, then GET the final report.
func (b *ingestBench) client(p *phase, c int, live *atomic.Pointer[string], cs *clientStats) error {
	wc, err := wire.Dial(b.srv.WireAddr(), 10*time.Second)
	if err != nil {
		return err
	}
	defer wc.Close()
	events := b.streams[c]
	base := "http://" + b.srv.Addr() + "/v1/report?session="
	for k := 0; !p.over(); k++ {
		id := fmt.Sprintf("%s-c%d-%d", p.tag, c, k)
		req := int64(c)<<32 | int64(k)
		t0 := time.Now()
		sp := p.tr.begin("serve.begin", req)
		s, err := wc.Begin(wire.BeginParams{ID: id, Metric: "accuracy", Predictor: predictor})
		d := sp.end()
		if !p.check(err == nil, "begin %s: %v", id, err) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if cs != nil {
			cs.begin.add(d)
		}
		if c == 0 {
			live.Store(&id)
		}
		var send time.Duration
		for off := 0; off < len(events) && err == nil; off += sendBatch {
			batch := events[off:min(off+sendBatch, len(events))]
			sp := p.tr.begin("wire.send", req)
			err = s.Send(batch)
			send += sp.end()
			p.events.Add(int64(len(batch)))
		}
		if !p.check(err == nil, "send %s: %v", id, err) {
			s.Abort()
			continue
		}
		sp = p.tr.begin("wire.end", req)
		_, err = s.End()
		d = sp.end()
		if !p.check(err == nil, "end %s: %v", id, err) {
			continue
		}
		sp = p.tr.begin("serve.report", req)
		status, body, err := get(b.http, base+url.QueryEscape(id))
		dr := sp.end()
		if !p.check(err == nil && status == http.StatusOK && bytes.Equal(body, b.refs[c]),
			"report of %s: status %d, err %v, identical %v", id, status, err, bytes.Equal(body, b.refs[c])) {
			continue
		}
		p.session.add(time.Since(t0))
		if cs != nil {
			cs.send.add(send)
			cs.end.add(d)
			cs.report.add(dr)
		}
	}
	return nil
}

// reader polls the live report of client 0's in-flight session on a
// fixed schedule; latency is timed from when each read was due.
func (b *ingestBench) reader(p *phase, live *atomic.Pointer[string]) {
	limit := int64(len(b.streams[0]))
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * livePeriod)
		if !due.Before(p.deadline) {
			return
		}
		time.Sleep(time.Until(due))
		p.late.add(time.Since(due))
		u := "http://" + b.srv.Addr() + "/v1/report"
		if id := live.Load(); id != nil {
			u += "?session=" + url.QueryEscape(*id)
		}
		status, body, err := get(b.http, u)
		var head reportHead
		if err == nil && status == http.StatusOK {
			head, err = readHead(body)
		}
		p.check(err == nil && status == http.StatusOK && head.Predictor == predictor && head.TotalExec <= limit,
			"live report: status %d, err %v, predictor %q, %d events", status, err, head.Predictor, head.TotalExec)
		p.report.add(time.Since(due))
	}
}

// reportHead is the part of a report the live reader checks.
type reportHead struct {
	Predictor string `json:"predictor"`
	TotalExec int64  `json:"totalExec"`
}

// readHead decodes a rendered core.Report only up to its branch table,
// which follows the fields reportHead holds, so that checking a live
// read costs the benchmark little CPU beside the daemon's.
func readHead(body []byte) (reportHead, error) {
	var h reportHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return h, fmt.Errorf("report is not a JSON object (%v)", err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return h, err
		}
		var v any = new(json.RawMessage)
		switch tok {
		case "predictor":
			v = &h.Predictor
		case "totalExec":
			v = &h.TotalExec
		case "branches":
			return h, nil
		}
		if err := dec.Decode(v); err != nil {
			return h, err
		}
	}
	return h, fmt.Errorf("report has no branch table")
}

// trace repeats measure with client-side spans, scrapes the daemon's
// /metrics through the pass, then times the WAL layer directly: the
// workload's batches through EncodeEventsCtx, Log.Append and Log.Sync,
// and wal.ReadAll over the template.
func (b *ingestBench) trace(p *phase, out map[string]float64) error {
	metricsURL := "http://" + b.srv.Addr() + "/metrics"
	before, err := scrape(b.http, metricsURL)
	if err != nil {
		return err
	}
	stopScrape := make(chan struct{})
	scraped := make(chan float64)
	go func() {
		depthMax := 0.0
		t := time.NewTicker(livePeriod)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				scraped <- depthMax
				return
			case <-t.C:
				m, err := scrape(b.http, metricsURL)
				if err != nil {
					continue
				}
				for k, v := range m {
					if strings.HasPrefix(k, "twodprof_shard_queue_depth") {
						depthMax = max(depthMax, v)
					}
				}
			}
		}
	}()
	var cs clientStats
	err = b.drive(p, &cs)
	close(stopScrape)
	depthMax := <-scraped
	if err != nil {
		return err
	}
	after, err := scrape(b.http, metricsURL)
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	events := delta("twodprof_events_ingested_total")
	if events <= 0 {
		return fmt.Errorf("no events ingested in the traced pass")
	}
	out["wal.bytes_per_event"] = delta("twodprof_wal_bytes_written_total") / events
	out["wire.bytes_per_event"] = delta("twodprof_wire_bytes_total") / events
	out["serve.shed"] = delta("twodprof_sessions_shed_total")
	out["serve.failed"] = delta("twodprof_sessions_failed_total")
	out["serve.queue_depth_max"] = depthMax
	out["serve.begin_ms"] = median(cs.begin.sorted())
	out["serve.report_ms"] = median(cs.report.sorted())
	out["wire.end_ms"] = median(cs.end.sorted())
	out["wire.send_s"] = median(cs.send.sorted()) / 1e3

	if err := b.walProbe(p, out); err != nil {
		return err
	}
	_, logs, err := dirBytes(b.tmpl)
	if err != nil {
		return err
	}
	var recoverS []float64
	for range 5 {
		sp := p.tr.begin("wal.recover", 0)
		for _, f := range logs {
			if _, _, err := wal.ReadAll(f); err != nil {
				return err
			}
		}
		recoverS = append(recoverS, sp.end().Seconds())
	}
	out["wal.recover_s"] = median(recoverS)
	return nil
}

// walProbe writes each client stream, in the workload's Send batches,
// to a scratch log under the daemon's fsync policy: encode and append
// per batch, a Sync whenever the policy's interval has passed and one
// at the end, as a finished session gets. Values are per session.
func (b *ingestBench) walProbe(p *phase, out map[string]float64) error {
	policy := serve.DefaultConfig().Fsync
	var appendS, syncS, syncs []float64
	var buf []byte
	for c, events := range b.streams {
		path := filepath.Join(b.e.dir, fmt.Sprintf("probe-%d.wal", c))
		l, err := wal.Create(path, policy)
		if err != nil {
			return err
		}
		var app, syn time.Duration
		n := 0
		last := time.Now()
		for off := 0; off < len(events); off += sendBatch {
			batch := events[off:min(off+sendBatch, len(events))]
			sp := p.tr.begin("wal.append", int64(c))
			buf = wal.EncodeEventsCtx(buf[:0], batch)
			err = l.Append(1, buf)
			app += sp.end()
			if err == nil && (time.Since(last) >= policy.Interval || off+sendBatch >= len(events)) {
				sp = p.tr.begin("wal.sync", int64(c))
				err = l.Sync()
				syn += sp.end()
				last = time.Now()
				n++
			}
			if err != nil {
				l.Close()
				return err
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
		os.Remove(path)
		appendS = append(appendS, app.Seconds())
		syncS = append(syncS, syn.Seconds())
		syncs = append(syncs, float64(n))
	}
	out["wal.append_s"] = median(appendS)
	out["wal.sync_s"] = median(syncS)
	out["wal.syncs"] = median(syncs)
	return nil
}

func (b *ingestBench) facts() map[string]any {
	return map[string]any{
		"loop":                 "closed wire clients plus one open-loop live-report reader",
		"clients":              b.e.clients,
		"events_per_session":   len(b.streams[0]),
		"send_batch":           sendBatch,
		"live_reads_per_s":     float64(time.Second / livePeriod),
		"metric":               "accuracy",
		"predictor":            predictor,
		"fsync":                serve.DefaultConfig().Fsync.String(),
		"compact_interval":     compactEvery.String(),
		"template_sessions":    b.tmplN,
		"template_wal_bytes":   b.tmplB,
		"template_torn_events": b.e.pick(tornEvents, templateEvents),
		"report_latency":       "live /v1/report reads of an in-flight session, from when each was due",
		"session_latency":      "Begin to final /v1/report received",
		"live_report_checked":  "status 200, and the report head: predictor, event count within the stream",
	}
}

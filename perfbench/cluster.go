package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"twodprof/internal/cluster"
	"twodprof/internal/core"
	"twodprof/internal/serve"
	"twodprof/internal/spec"
	"twodprof/internal/trace"
	"twodprof/internal/wire"
)

const (
	groups        = 4      // distinct collector groups, reused round robin
	members       = 4      // sessions per group
	clusterEvents = 20_000 // events per session
	clusterSlice  = 4000   // slice size, so a session spans five slices
	// clusterRate is the open-loop session arrival rate: a sixth of the
	// closed-loop capacity, near 300 sessions/s, that two workers
	// reached on a 2-CPU Xeon host. At a half and at a third of it,
	// queueing on a shared host made latencies too unsteady to bound.
	clusterRate = 50
)

// member is one PC-disjoint member stream of a collector group.
type member struct {
	events []trace.Event
	btr3   []byte
	ref    []byte // served rendering of the reference report
	snap   *core.Snapshot
}

// clusterBench is the cluster-small workload: a router over two
// in-memory nodes; short bias sessions arrive open-loop, alternating
// router wire sessions and HTTP ingest posts, and each completed group
// is fetched as a scatter-gather report.
type clusterBench struct {
	e         *env
	cfg       core.Config
	members   []member // groups*members, group-major
	groupRefs [][]byte
	nodes     []*serve.Server
	names     []string
	ring      *cluster.Ring // the router's ring, for direct-to-owner sessions
	rt        *cluster.Router
	http      *http.Client
}

func (b *clusterBench) prepare() error {
	b.cfg = core.DefaultConfig()
	b.cfg.Metric = core.MetricBias
	b.cfg.SliceSize = clusterSlice
	models := spec.Names()
	for g := range groups {
		var snaps []*core.Snapshot
		for j := range members {
			i := g*members + j
			events, err := genEvents(models[i%len(models)], b.e.seed, fmt.Sprintf("cluster-%d", i),
				clusterEvents, trace.PC(j+1)<<40)
			if err != nil {
				return err
			}
			raw, err := encodeBTR3(events)
			if err != nil {
				return err
			}
			p, err := reference(events, b.cfg)
			if err != nil {
				return err
			}
			ref, err := served(p.Finish())
			if err != nil {
				return err
			}
			m := member{events: events, btr3: raw, ref: ref, snap: p.Snapshot()}
			b.members = append(b.members, m)
			snaps = append(snaps, m.snap)
		}
		rep, err := core.MergeReports(snaps...)
		if err != nil {
			return err
		}
		ref, err := served(rep)
		if err != nil {
			return err
		}
		b.groupRefs = append(b.groupRefs, ref)
	}
	b.http = newHTTPClient()
	return nil
}

// start brings up two nodes and the router and waits until the router
// sees every node up and reports ready.
func (b *clusterBench) start() (time.Duration, error) {
	t0 := time.Now()
	var nodes []cluster.Node
	b.names = nil
	for i := range 2 {
		cfg := serve.DefaultConfig()
		cfg.Addr = "127.0.0.1:0"
		cfg.WireAddr = "127.0.0.1:0"
		s, err := serve.NewServer(cfg)
		if err != nil {
			return 0, err
		}
		if _, err := s.Start(); err != nil {
			return 0, err
		}
		b.nodes = append(b.nodes, s)
		name := fmt.Sprintf("n%d", i)
		b.names = append(b.names, name)
		nodes = append(nodes, cluster.Node{Name: name, HTTPAddr: s.Addr(), WireAddr: s.WireAddr()})
	}
	rt, err := cluster.NewRouter(cluster.Config{Addr: "127.0.0.1:0", WireAddr: "127.0.0.1:0", Nodes: nodes})
	if err != nil {
		return 0, err
	}
	if b.ring, err = cluster.NewRing(b.names, 0); err != nil {
		return 0, err
	}
	if _, err := rt.Start(); err != nil {
		return 0, err
	}
	b.rt = rt
	for deadline := time.Now().Add(10 * time.Second); ; {
		up := true
		for _, n := range b.names {
			up = up && rt.Registry().Up(n)
		}
		if up {
			if status, _, err := get(b.http, "http://"+rt.Addr()+"/healthz/ready"); err == nil && status == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cluster not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0), nil
}

func (b *clusterBench) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if b.rt != nil {
		if err := b.rt.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: router shutdown:", err)
		}
		b.rt = nil
	}
	for _, s := range b.nodes {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: node shutdown:", err)
		}
	}
	b.nodes = nil
	b.http.CloseIdleConnections()
}

func (b *clusterBench) close() {
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
}

// proxyStats collects the traced routed-versus-direct comparison.
type proxyStats struct {
	routed, direct, merge samples
}

func (b *clusterBench) measure(p *phase) error { return b.drive(p, nil) }

// drive runs the open loop: session i is due at start + i/rate and is
// served by whichever of the nproc workers is free. No group starts
// after the deadline, and a started group is always completed.
func (b *clusterBench) drive(p *phase, ps *proxyStats) error {
	period := time.Second / clusterRate
	var mu sync.Mutex
	var next int64
	closed := false
	take := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next%members == 0 && p.over() {
			closed = true
		}
		if closed {
			return 0, false
		}
		next++
		return next - 1, true
	}
	done := make(map[int64]int)
	var wg sync.WaitGroup
	errc := make(chan error, b.e.clients)
	for range b.e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := wire.Dial(b.rt.WireAddr(), 10*time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer wc.Close()
			var direct []*wire.Client
			if ps != nil {
				for _, n := range b.nodes {
					dc, err := wire.Dial(n.WireAddr(), 10*time.Second)
					if err != nil {
						errc <- err
						return
					}
					defer dc.Close()
					direct = append(direct, dc)
				}
			}
			for {
				i, ok := take()
				if !ok {
					return
				}
				due := p.start.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				p.late.add(time.Since(due))
				g := i / members
				b.session(p, wc, i, due, ps)
				mu.Lock()
				done[g]++
				complete := done[g] == members
				mu.Unlock()
				if complete {
					b.groupReport(p, g, ps)
				}
				if ps != nil && i%(2*members) == 0 {
					b.directSession(p, direct, i, ps)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

func (b *clusterBench) memberOf(i int64) *member {
	g, j := (i/members)%groups, i%members
	return &b.members[g*members+j]
}

// session streams session i through the router, over wire for even
// members and as an HTTP ingest post for odd ones, then fetches its
// report through the router and compares it with the reference.
func (b *clusterBench) session(p *phase, wc *wire.Client, i int64, due time.Time, ps *proxyStats) {
	m := b.memberOf(i)
	id := fmt.Sprintf("%s-s%d", p.tag, i)
	gid := fmt.Sprintf("%s-g%d", p.tag, i/members)
	t0 := time.Now()
	if i%2 == 0 {
		sp := p.tr.begin("router.wire_session", i)
		err := streamWire(wc, wire.BeginParams{ID: id, Group: gid, Metric: "bias", SliceSize: clusterSlice}, m.events)
		sp.end()
		if !p.check(err == nil, "wire session %s: %v", id, err) {
			return
		}
	} else {
		u := fmt.Sprintf("http://%s/v1/ingest?session=%s&group=%s&metric=bias&slice=%d", b.rt.Addr(), id, gid, clusterSlice)
		sp := p.tr.begin("router.http_ingest", i)
		status, body, err := post(b.http, u, m.btr3)
		sp.end()
		if !p.check(err == nil && status == http.StatusOK, "http ingest %s: status %d, err %v: %s", id, status, err, body) {
			return
		}
	}
	sp := p.tr.begin("router.report", i)
	status, body, err := get(b.http, "http://"+b.rt.Addr()+"/v1/report?session="+id)
	sp.end()
	if !p.check(err == nil && status == http.StatusOK && bytes.Equal(body, m.ref),
		"report of %s: status %d, err %v, identical %v", id, status, err, bytes.Equal(body, m.ref)) {
		return
	}
	p.events.Add(int64(len(m.events)))
	p.session.add(time.Since(due))
	if ps != nil && i%(2*members) == 0 {
		ps.routed.add(time.Since(t0))
	}
}

func streamWire(wc *wire.Client, bp wire.BeginParams, events []trace.Event) error {
	s, err := wc.Begin(bp)
	if err != nil {
		return err
	}
	if err := s.Send(events); err != nil {
		s.Abort()
		return err
	}
	_, err = s.End()
	return err
}

// groupReport fetches a completed group's scatter-gather report
// through the router; it is due when the group's last member finished.
func (b *clusterBench) groupReport(p *phase, g int64, ps *proxyStats) {
	ref := b.groupRefs[g%groups]
	t0 := time.Now()
	sp := p.tr.begin("router.group_report", g)
	status, body, err := get(b.http, fmt.Sprintf("http://%s/v1/report?group=%s-g%d", b.rt.Addr(), p.tag, g))
	sp.end()
	if !p.check(err == nil && status == http.StatusOK && bytes.Equal(body, ref),
		"group report %d: status %d, err %v, identical %v", g, status, err, bytes.Equal(body, ref)) {
		return
	}
	p.report.add(time.Since(t0))
	if ps != nil {
		var snaps []*core.Snapshot
		for j := range members {
			snaps = append(snaps, b.members[int(g%groups)*members+j].snap)
		}
		sp := p.tr.begin("core.merge", g)
		_, err := core.MergeReports(snaps...)
		d := sp.end()
		if p.check(err == nil, "merging group %d: %v", g, err) {
			ps.merge.add(d)
		}
	}
}

// directSession repeats session i's wire stream straight to the node
// the ring assigns it, without a group, and fetches the report from
// that node: the baseline cluster.proxy_ms is measured against.
func (b *clusterBench) directSession(p *phase, direct []*wire.Client, i int64, ps *proxyStats) {
	m := b.memberOf(i)
	id := fmt.Sprintf("%s-d%d", p.tag, i)
	owner, _ := b.ring.Owner(id, func(string) bool { return true })
	k := 0
	for j, n := range b.names {
		if n == owner {
			k = j
		}
	}
	t0 := time.Now()
	sp := p.tr.begin("direct.session", i)
	err := streamWire(direct[k], wire.BeginParams{ID: id, Metric: "bias", SliceSize: clusterSlice}, m.events)
	if err == nil {
		var status int
		var body []byte
		status, body, err = get(b.http, "http://"+b.nodes[k].Addr()+"/v1/report?session="+id)
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, m.ref)) {
			err = fmt.Errorf("status %d, identical %v", status, bytes.Equal(body, m.ref))
		}
	}
	sp.end()
	if p.check(err == nil, "direct session %s: %v", id, err) {
		ps.direct.add(time.Since(t0))
	}
}

func (b *clusterBench) trace(p *phase, out map[string]float64) error {
	var ps proxyStats
	if err := b.drive(p, &ps); err != nil {
		return err
	}
	m, err := scrape(b.http, "http://"+b.rt.Addr()+"/metrics")
	if err != nil {
		return err
	}
	out["cluster.proxy_ms"] = median(ps.routed.sorted()) - median(ps.direct.sorted())
	out["cluster.scatter_ms"] = m["twodprof_router_scatter_latency_avg_ms"]
	out["cluster.shed"] = m["twodprof_router_shed_total"]
	out["cluster.proxy_errors"] = m["twodprof_router_proxy_errors_total"]
	out["core.merge_s"] = median(ps.merge.sorted()) / 1e3
	out["bench.gen_late_p99_ms"] = quantile(p.late.sorted(), 0.99)
	return nil
}

func (b *clusterBench) facts() map[string]any {
	return map[string]any{
		"loop":               "open, fixed arrival rate, served by nproc workers",
		"workers":            b.e.clients,
		"sessions_per_s":     clusterRate,
		"events_per_session": clusterEvents,
		"slice_size":         clusterSlice,
		"groups":             groups,
		"members_per_group":  members,
		"nodes":              2,
		"metric":             "bias",
		"transports":         "even sessions router wire, odd sessions router HTTP ingest",
		"report_latency":     "group scatter-gather /v1/report?group=, from the group's last member finishing",
		"session_latency":    "due time to final /v1/report received through the router",
	}
}

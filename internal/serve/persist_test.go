package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twodprof/internal/bpred"
	"twodprof/internal/core"
	"twodprof/internal/trace"
	"twodprof/internal/wal"
)

// durableConfig is testConfig plus a data directory with an aggressive
// fsync policy (tests care about correctness, not write latency).
func durableConfig(t testing.TB) Config {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncAlways}
	return cfg
}

// sessionList fetches and decodes /v1/sessions.
func sessionList(t testing.TB, srv *Server) []SessionInfo {
	t.Helper()
	code, body := get(t, srv, "/v1/sessions")
	if code != 200 {
		t.Fatalf("/v1/sessions: %d: %s", code, body)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	return infos
}

func findSession(t testing.TB, infos []SessionInfo, id string) SessionInfo {
	t.Helper()
	for _, info := range infos {
		if info.ID == id {
			return info
		}
	}
	t.Fatalf("session %s not in /v1/sessions (%d entries)", id, len(infos))
	return SessionInfo{}
}

// traceEvents decodes every event of a BTR trace.
func traceEvents(t testing.TB, raw []byte) []trace.Event {
	t.Helper()
	tr, err := trace.OpenReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var (
		out []trace.Event
		buf [512]trace.Event
	)
	for {
		k, err := tr.ReadBatch(buf[:])
		out = append(out, buf[:k]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRestartReport: a finished session survives a clean daemon
// restart — the recovered /v1/report is byte-identical, and the session
// reappears idle-tier with the recovered marker.
func TestDurableRestartReport(t *testing.T) {
	cfg := durableConfig(t)
	srv := startServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=dur-1&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=dur-1")

	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	info := findSession(t, sessionList(t, srv2), "dur-1")
	if !info.Recovered {
		t.Error("recovered session not marked recovered in /v1/sessions")
	}
	if info.Tier != "idle" {
		t.Errorf("recovered session tier = %q, want idle", info.Tier)
	}
	if info.State != "done" {
		t.Errorf("recovered session state = %q, want done", info.State)
	}
	code, got := get(t, srv2, "/v1/report?session=dur-1")
	if code != 200 {
		t.Fatalf("report after restart: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered report is not byte-identical to the pre-restart report")
	}
	// The reload promoted the session back to the hot tier.
	if tier := findSession(t, sessionList(t, srv2), "dur-1").Tier; tier != "hot" {
		t.Errorf("tier after reload = %q, want hot", tier)
	}
	// A fresh generated id must not collide with the recovered log.
	if code, body := postTrace(t, srv2, "/v1/ingest", raw); code != 200 {
		t.Fatalf("post-recovery ingest: %d: %s", code, body)
	}
	if findSession(t, sessionList(t, srv2), "dur-1").ID != "dur-1" {
		t.Error("recovered session lost after a new ingest")
	}
}

// TestMidStreamRecovery: a log without a terminal record (the daemon
// died while the client was streaming) is replayed through a fresh
// engine at startup; the recovered report is byte-identical to an
// offline profiler run over the same durable prefix, and the log gains
// a terminal record so the next restart is cheap.
func TestMidStreamRecovery(t *testing.T) {
	cfg := durableConfig(t)
	raw := kernelTrace(t, "typesum", "train", false)
	events := traceEvents(t, raw)
	prefix := events[:len(events)/2]

	// Craft the interrupted log by hand: begin + event batches, no
	// terminal record, then a torn frame on the tail.
	st, err := openStore(cfg.DataDir, cfg.Fsync, cfg.CheckpointEvery, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	plog, err := st.Create(sessionMeta{
		ID:        "interrupted",
		Profile:   cfg.Profile,
		Predictor: cfg.Predictor,
	})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(prefix); off += 512 {
		end := off + 512
		if end > len(prefix) {
			end = len(prefix)
		}
		if err := plog.appendEvents(prefix[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	plog.abandon()
	f, err := os.OpenFile(st.path("interrupted"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv := startServer(t, cfg)
	info := findSession(t, sessionList(t, srv), "interrupted")
	if info.State != "failed" {
		t.Errorf("state = %q, want failed", info.State)
	}
	if !strings.Contains(info.Error, "recovered from WAL") {
		t.Errorf("reason = %q, want the recovery marker", info.Error)
	}
	if info.Events != int64(len(prefix)) {
		t.Errorf("recovered %d events, want %d", info.Events, len(prefix))
	}

	code, got := get(t, srv, "/v1/report?session=interrupted")
	if code != 200 {
		t.Fatalf("report: %d: %s", code, got)
	}
	// The independent ground truth: one offline profiler over the same
	// durable prefix.
	prof, err := core.NewProfiler(cfg.Profile, bpred.MustNew(cfg.Predictor))
	if err != nil {
		t.Fatal(err)
	}
	prof.BranchBatch(prefix)
	want := marshalReport(t, prof.Finish())
	if !bytes.Equal(got, want) {
		t.Error("recovered report differs from an offline run over the durable prefix")
	}

	// Recovery checkpointed the replay: the log now ends in a terminal
	// record, so a second recovery serves the same bytes without replay.
	recs, repair, err := wal.ReadAll(st.path("interrupted"))
	if err != nil {
		t.Fatal(err)
	}
	if repair != nil {
		t.Errorf("log still dirty after recovery: %+v", repair)
	}
	if last := recs[len(recs)-1].Type; last != recFail {
		t.Errorf("log tail record type %d, want recFail", last)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, cfg)
	code, again := get(t, srv2, "/v1/report?session=interrupted")
	if code != 200 {
		t.Fatalf("report after second restart: %d: %s", code, again)
	}
	if !bytes.Equal(again, got) {
		t.Error("second recovery produced different report bytes")
	}
}

// TestIdleEvictionAndReload: the janitor demotes an unqueried finished
// session to the idle tier (report released), and the next query
// reloads it byte-identically from the checkpoint.
func TestIdleEvictionAndReload(t *testing.T) {
	cfg := durableConfig(t)
	cfg.IdleAfter = 30 * time.Millisecond
	cfg.CompactInterval = 10 * time.Millisecond
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=sleepy&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=sleepy")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if findSession(t, sessionList(t, srv), "sleepy").Tier == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never idled the session")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, got := get(t, srv, "/v1/report?session=sleepy")
	if code != 200 {
		t.Fatalf("report after idle eviction: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("report reloaded from the idle tier is not byte-identical")
	}
	if tier := findSession(t, sessionList(t, srv), "sleepy").Tier; tier != "hot" {
		t.Errorf("tier after reload = %q, want hot", tier)
	}
}

// TestCompactionShrinksLog: the janitor rewrites a finished log down to
// begin + checkpoint, and the compacted log still reproduces the
// original report across a restart.
func TestCompactionShrinksLog(t *testing.T) {
	cfg := durableConfig(t)
	cfg.CheckpointEvery = 1 // any finished log qualifies
	// Long enough that the full (uncompacted) log is observable below
	// before the first janitor pass rewrites it — ingest is fast enough
	// now that a few-ms interval loses that race.
	cfg.CompactInterval = 300 * time.Millisecond
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=fat&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=fat")

	logPath := filepath.Join(cfg.DataDir, "fat.wal")
	full, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, _, err := wal.ReadAll(logPath)
		if err == nil && len(recs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never compacted the log (%d records)", len(recs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	compacted, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= full.Size() {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", full.Size(), compacted.Size())
	}

	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, cfg)
	code, got := get(t, srv2, "/v1/report?session=fat")
	if code != 200 {
		t.Fatalf("report from compacted log: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("compacted log does not reproduce the original report")
	}
}

// TestCapEvictedSessionServedFromDisk: a session the registry's
// retention cap dropped is still served from its on-disk checkpoint —
// the deepest lifecycle tier.
func TestCapEvictedSessionServedFromDisk(t *testing.T) {
	cfg := durableConfig(t)
	cfg.MaxSessions = 1
	srv := startServer(t, cfg)

	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=old&kernel=fsm", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=old")
	for i := 0; i < 2; i++ {
		if code, body := postTrace(t, srv, fmt.Sprintf("/v1/ingest?session=new-%d&kernel=fsm", i), raw); code != 200 {
			t.Fatalf("ingest new-%d: %d: %s", i, code, body)
		}
	}
	if srv.registry.Get("old") != nil {
		t.Fatal("session old still in the registry; cap did not evict it")
	}

	code, got := get(t, srv, "/v1/report?session=old")
	if code != 200 {
		t.Fatalf("report for cap-evicted session: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("disk-served report for a cap-evicted session is not byte-identical")
	}
	// And re-registering the evicted id is refused — its log still owns it.
	if code, _ := postTrace(t, srv, "/v1/ingest?session=old", raw); code != 409 {
		t.Errorf("re-ingest of a persisted id: status %d, want 409", code)
	}
}

// TestLegacyShardsLogRecovers: logs written while sessions were
// PC-sharded carry a "shards" count in their begin metadata. Such a
// log — finished, or cut mid-stream — must still recover to a report
// byte-identical to the uninterrupted run's; the count is ignored.
func TestLegacyShardsLogRecovers(t *testing.T) {
	cfg := durableConfig(t)
	cfg.CheckpointEvery = 1 << 62 // keep the event records for the mid-stream copy
	srv := startServer(t, cfg)
	raw := kernelTrace(t, "fsm", "train", false)
	if code, body := postTrace(t, srv, "/v1/ingest?session=orig", raw); code != 200 {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	_, want := get(t, srv, "/v1/report?session=orig")
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	recs, _, err := wal.ReadAll(filepath.Join(cfg.DataDir, "orig.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1].Type; last != recDone {
		t.Fatalf("log tail record type %d, want recDone", last)
	}
	legacy := func(id string, recs []wal.Record) {
		var meta map[string]any
		if err := json.Unmarshal(recs[0].Payload, &meta); err != nil {
			t.Fatal(err)
		}
		meta["id"], meta["shards"] = id, 4
		begin, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]wal.Record{{Type: recBegin, Payload: begin}}, recs[1:]...)
		if err := wal.Rewrite(filepath.Join(cfg.DataDir, id+".wal"), out); err != nil {
			t.Fatal(err)
		}
	}
	legacy("legacy-done", recs)
	legacy("legacy-mid", recs[:len(recs)-1])

	srv2 := startServer(t, cfg)
	for _, id := range []string{"legacy-done", "legacy-mid"} {
		code, got := get(t, srv2, "/v1/report?session="+id)
		if code != 200 {
			t.Fatalf("%s: report: %d: %s", id, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: recovered report differs from the uninterrupted run", id)
		}
	}
}

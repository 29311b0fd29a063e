package server_test

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// TestMetricsEndpoint scrapes /metrics off a live engine and checks the
// exposition parses as prometheus text: every family has HELP and TYPE
// lines, and the engine's state shows up with the right values.
func TestMetricsEndpoint(t *testing.T) {
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(server.Config{Engine: eng, Logf: t.Logf})
	defer srv.Shutdown(context.Background())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)

	// Three keys through the wire: one engine call of three operations,
	// then one of two.
	cl, err := client.Dial(lis.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Upsert(ctx, []uint64{1, 2, 3}, []uint64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Lookup(ctx, []uint64{1, 9}, client.ReadToken{}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	samples := make(map[string]string)
	var families, helps, types int
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helps++
		case strings.HasPrefix(line, "# TYPE "):
			types++
		default:
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("malformed sample line %q", line)
			}
			samples[fields[0]] = fields[1]
			families++
		}
	}
	if families == 0 || helps != families || types != families {
		t.Fatalf("%d samples, %d HELP, %d TYPE lines", families, helps, types)
	}
	if samples["extbuf_keys"] != "3" {
		t.Fatalf("extbuf_keys = %q, want 3", samples["extbuf_keys"])
	}
	if samples["extbuf_writable"] != "1" {
		t.Fatalf("extbuf_writable = %q, want 1", samples["extbuf_writable"])
	}
	// The appliers' engine calls, counted by the server itself (a
	// decorator around the engine no longer sees the pipelined ones).
	for name, want := range map[string]string{
		"extbuf_engine_calls_total":        "2",
		"extbuf_engine_call_ops_total":     "5",
		"extbuf_engine_calls_outstanding":  "0",
		"extbuf_repl_replay_inserts_total": "0",
		"extbuf_repl_replay_upserts_total": "0",
		// A node that replays nothing still exposes the pipeline's families.
		"extbuf_repl_replay_records_total":      "0",
		"extbuf_repl_replay_inflight_frames":    "0",
		"extbuf_repl_replay_wait_seconds_total": "0.000000",
		"extbuf_repl_replay_sync_runs_total":    "0",
	} {
		if samples[name] != want {
			t.Fatalf("%s = %q, want %s", name, samples[name], want)
		}
	}
	// The exposition is exactly these families: PR 24's, less the three
	// the deleted kernel-bypass tier fed.
	want := []string{
		"extbuf_keys", "extbuf_memory_bytes",
		"extbuf_model_reads_total", "extbuf_model_writes_total", "extbuf_model_writebacks_total",
		"extbuf_store_read_syscalls_total", "extbuf_store_write_syscalls_total",
		"extbuf_store_cache_hits_total", "extbuf_store_cache_misses_total",
		"extbuf_store_bytes_read_total", "extbuf_store_bytes_written_total",
		"extbuf_store_evictions_total", "extbuf_store_dirty_writebacks_total",
		"extbuf_store_flushed_frames_total", "extbuf_store_flush_runs_total",
		"extbuf_store_fsyncs_total", "extbuf_store_ghost_hits_total",
		"extbuf_wal_spills_total", "extbuf_wal_fsyncs_total",
		"extbuf_commit_waves_total", "extbuf_commit_wave_ops_total",
		"extbuf_engine_calls_total", "extbuf_engine_call_ops_total", "extbuf_engine_calls_outstanding",
		"extbuf_expiry_tracked", "extbuf_expiry_lazy_hits_total", "extbuf_expiry_swept_total",
		"extbuf_repl_epoch", "extbuf_repl_current_lsn", "extbuf_repl_follower_lag",
		"extbuf_repl_frames_shipped_total", "extbuf_repl_frames_replayed_total",
		"extbuf_repl_replay_inserts_total", "extbuf_repl_replay_upserts_total",
		"extbuf_repl_replay_records_total", "extbuf_repl_replay_inflight_frames",
		"extbuf_repl_replay_wait_seconds_total", "extbuf_repl_replay_sync_runs_total",
		"extbuf_writable", "go_goroutines",
	}
	for _, name := range want {
		if _, ok := samples[name]; !ok {
			t.Fatalf("metric %s missing from exposition", name)
		}
	}
	for _, gone := range []string{"extbuf_uring_enters_total", "extbuf_uring_sqes_total", "extbuf_directio_stores"} {
		if _, ok := samples[gone]; ok {
			t.Fatalf("metric %s of the deleted kernel-bypass tier is still exposed", gone)
		}
	}
	if len(samples) != len(want) {
		t.Fatalf("%d metric families exposed, want %d", len(samples), len(want))
	}
}

// scrape renders srv's exposition and returns its samples by name.
func scrape(t *testing.T, srv *server.Server) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples := make(map[string]string)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			samples[f[0]] = f[1]
		}
	}
	return samples
}

// TestMetricsReplayPipeline reads the replay pipeline's counters off a
// follower that is stopped (promoted) while the primary is still being
// written: every record it appended was counted, the one expiry in the
// stream was the only run applied synchronously, and the in-flight gauge
// is back at 0 — Stop leaves no frame started and unfinished.
func TestMetricsReplayPipeline(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}
	cl := dialNode(t, primary.addr)
	ctx := context.Background()
	if _, err := cl.Upsert(ctx, []uint64{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	_, tok, err := cl.Expire(ctx, []uint64{1}, []uint64{1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	fc := dialNode(t, follower.addr)
	if _, _, err := fc.Lookup(ctx, []uint64{1}, tok); err != nil {
		t.Fatal(err)
	}

	writerDone := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		keys, vals := make([]uint64, 64), make([]uint64, 64)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			for j := range keys {
				keys[j], vals[j] = 100+i*64+uint64(j), i
			}
			if _, err := cl.Upsert(ctx, keys, vals); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	waitUntil(t, "the follower replaying the writer's stream", func() bool {
		info, _ := follower.srv.Info()
		return info.AppliedLSN > 1000
	})
	info, err := follower.srv.Promote()
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	m := scrape(t, follower.srv)
	if got, want := m["extbuf_repl_replay_records_total"], strconv.FormatUint(info.AppliedLSN, 10); got != want {
		t.Fatalf("extbuf_repl_replay_records_total = %s, want the applied lsn %s", got, want)
	}
	if m["extbuf_repl_replay_inflight_frames"] != "0" {
		t.Fatalf("extbuf_repl_replay_inflight_frames = %s after Stop, want 0", m["extbuf_repl_replay_inflight_frames"])
	}
	if m["extbuf_repl_replay_sync_runs_total"] != "1" {
		t.Fatalf("extbuf_repl_replay_sync_runs_total = %s, want 1 (the expiry)", m["extbuf_repl_replay_sync_runs_total"])
	}
	if w, err := strconv.ParseFloat(m["extbuf_repl_replay_wait_seconds_total"], 64); err != nil || w <= 0 {
		t.Fatalf("extbuf_repl_replay_wait_seconds_total = %q (%v), want a positive number of seconds",
			m["extbuf_repl_replay_wait_seconds_total"], err)
	}
}

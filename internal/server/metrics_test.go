package server_test

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
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
	} {
		if samples[name] != want {
			t.Fatalf("%s = %q, want %s", name, samples[name], want)
		}
	}
	for _, want := range []string{"extbuf_expiry_tracked", "extbuf_expiry_swept_total",
		"extbuf_store_cache_hits_total", "extbuf_repl_current_lsn", "go_goroutines",
		"extbuf_commit_waves_total", "extbuf_commit_wave_ops_total"} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("metric %s missing from exposition", want)
		}
	}
}

package server_test

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"extbuf"
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

	if err := eng.UpsertBatch([]uint64{1, 2, 3}, []uint64{4, 5, 6}); err != nil {
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
	for _, want := range []string{"extbuf_expiry_tracked", "extbuf_expiry_swept_total",
		"extbuf_store_cache_hits_total", "extbuf_repl_current_lsn", "go_goroutines",
		"extbuf_commit_waves_total", "extbuf_commit_wave_ops_total"} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("metric %s missing from exposition", want)
		}
	}
}

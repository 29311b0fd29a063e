package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// newServer returns a server for cfg, failing the test if cfg is invalid.
func newServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func startServer(t *testing.T) (string, func()) {
	t.Helper()
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, server.Config{Engine: eng, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	return lis.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		eng.Close()
	}
}

// TestContextDeadline dials a listener that never answers and checks
// the deadline fires instead of hanging.
func TestContextDeadline(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // accept and say nothing
		}
	}()

	cl, err := client.Dial(lis.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = cl.Lookup(ctx, []uint64{1}, client.ReadToken{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline took %v to fire", time.Since(start))
	}
}

// TestPoolSpreadsAndPipelines drives async requests over a 3-conn pool
// and verifies ordering-insensitive correctness.
func TestPoolSpreadsAndPipelines(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{Conns: 3, Pipeline: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	var inserts []*client.Pending
	for i := 0; i < 300; i++ {
		p, err := cl.GoInsert([]uint64{uint64(i + 1)}, []uint64{uint64(i * 2)})
		if err != nil {
			t.Fatal(err)
		}
		inserts = append(inserts, p)
	}
	for i, p := range inserts {
		if err := p.Wait(ctx); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	var lookups []*client.Pending
	for i := 0; i < 300; i += 100 {
		keys := make([]uint64, 100)
		for j := range keys {
			keys[j] = uint64(i + j + 1)
		}
		p, err := cl.GoLookup(keys)
		if err != nil {
			t.Fatal(err)
		}
		lookups = append(lookups, p)
	}
	for bi, p := range lookups {
		vals, found, err := p.Lookup(ctx)
		if err != nil {
			t.Fatalf("lookup batch %d: %v", bi, err)
		}
		for j := range vals {
			want := uint64((bi*100 + j) * 2)
			if !found[j] || vals[j] != want {
				t.Fatalf("batch %d key %d: (%d,%v), want (%d,true)", bi, j, vals[j], found[j], want)
			}
		}
	}
}

// TestServerGoneFailsFast kills the server and checks the client
// surfaces connection errors rather than hanging.
func TestServerGoneFailsFast(t *testing.T) {
	addr, stop := startServer(t)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Insert(ctx, []uint64{1}, []uint64{2}); err != nil {
		stop()
		t.Fatal(err)
	}
	stop() // server down

	deadline, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_, err = cl.Insert(deadline, []uint64{3}, []uint64{4})
	if err == nil {
		t.Fatal("insert succeeded against a dead server")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client hung until deadline instead of failing fast: %v", err)
	}
}

// TestBatchValidation checks client-side batch guards.
func TestBatchValidation(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.GoInsert([]uint64{1, 2}, []uint64{3}); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	big := make([]uint64, 1<<16+1)
	if _, err := cl.GoLookup(big); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("oversized batch: %v, want ErrTooLarge", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GoLookup([]uint64{1}); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("closed client: %v, want ErrClosed", err)
	}
}

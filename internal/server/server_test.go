package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
	"extbuf/internal/wire"
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

// startServer boots a server over a fresh mem-backend sharded engine on
// a loopback listener and returns its address plus a teardown that
// drains the server and closes the engine.
func startServer(t testing.TB, cfg extbuf.Config, shards int, scfg server.Config) (string, *extbuf.Sharded, func()) {
	t.Helper()
	eng, err := extbuf.NewSharded("buffered", cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Engine = eng
	if scfg.Logf == nil {
		scfg.Logf = t.Logf
	}
	srv := newServer(t, scfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	return lis.Addr().String(), eng, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		if err := eng.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}
}

func TestServeRoundTrip(t *testing.T) {
	addr, _, stop := startServer(t, extbuf.Config{}, 4, server.Config{})
	defer stop()

	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	keys := make([]uint64, 500)
	vals := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 7
	}
	if _, err := cl.Insert(ctx, keys, vals); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if n, err := cl.Len(ctx); err != nil || n != 500 {
		t.Fatalf("Len = %d, %v; want 500", n, err)
	}
	got, found, err := cl.Lookup(ctx, append([]uint64{9999}, keys...), client.ReadToken{})
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if found[0] {
		t.Fatal("absent key reported found")
	}
	for i := range keys {
		if !found[i+1] || got[i+1] != vals[i] {
			t.Fatalf("key %d: (%d,%v), want (%d,true)", keys[i], got[i+1], found[i+1], vals[i])
		}
	}
	if _, err := cl.Upsert(ctx, keys[:10], make([]uint64, 10)); err != nil {
		t.Fatalf("UpsertBatch: %v", err)
	}
	if got, _, _ := cl.Lookup(ctx, keys[:1], client.ReadToken{}); got[0] != 0 {
		t.Fatalf("upserted value = %d, want 0", got[0])
	}
	deleted, _, err := cl.Delete(ctx, keys[:20])
	if err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	for i, ok := range deleted {
		if !ok {
			t.Fatalf("delete %d missed", i)
		}
	}
	if n, _ := cl.Len(ctx); n != 480 {
		t.Fatalf("Len after delete = %d, want 480", n)
	}
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := cl.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Len != 480 {
		t.Fatalf("Stats.Len = %d, want 480", st.Len)
	}
	if st.Ops.IOs() == 0 {
		t.Fatal("Stats.Ops.IOs = 0, want > 0")
	}
}

// TestPipelinedAggregation floods one connection with async inserts and
// lookups and checks every response arrives, in a consistent state. The
// engine call counter proves the server coalesced pipelined requests
// into fewer engine batches.
func TestPipelinedAggregation(t *testing.T) {
	eng := &countingEngine{Sharded: newSharded(t)}
	srv := newServer(t, server.Config{Engine: eng, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Shutdown(context.Background())

	cl, err := client.Dial(lis.Addr().String(), client.Options{Pipeline: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const requests = 200
	pendings := make([]*client.Pending, 0, requests)
	keys := []uint64{1, 2, 3, 4}
	vals := []uint64{5, 6, 7, 8}
	for i := 0; i < requests; i++ {
		p, err := cl.GoInsert(keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	ctx := context.Background()
	for i, p := range pendings {
		if err := p.Wait(ctx); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
	}
	if got := eng.inserted.Load(); got != requests*4 {
		t.Fatalf("engine saw %d inserted ops, want %d", got, requests*4)
	}
	calls := eng.insertCalls.Load()
	if calls >= requests {
		t.Fatalf("engine saw %d insert calls for %d pipelined requests — no aggregation", calls, requests)
	}
	t.Logf("aggregation: %d requests -> %d engine calls, %d syncs", requests, calls, eng.syncs.Load())
	if eng.syncs.Load() == 0 {
		t.Fatal("mutations acked without any Sync barrier")
	}
}

// countingEngine is a mem Sharded that counts what the server asks of
// it — insert calls and their operations, Syncs — and claims durability,
// so the server runs its group-commit ack barrier. Each Sync takes a
// believable fsync's time, so commits pile up.
type countingEngine struct {
	*extbuf.Sharded
	insertCalls atomic.Int64
	inserted    atomic.Int64
	syncs       atomic.Int64
}

func (e *countingEngine) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	if op == extbuf.BatchInsert {
		e.insertCalls.Add(1)
		e.inserted.Add(int64(len(keys)))
	}
	return e.Sharded.StartBatch(op, ship, keys, vals, vals2, found)
}

func (e *countingEngine) Sync() error {
	e.syncs.Add(1)
	time.Sleep(200 * time.Microsecond)
	return e.Sharded.Sync()
}

func (e *countingEngine) Durable() bool { return true }

// TestOversizedBatchRejected sends a well-framed request above the
// server's MaxBatch and expects an ERR response — with the connection
// still usable afterwards.
func TestOversizedBatchRejected(t *testing.T) {
	addr, _, stop := startServer(t, extbuf.Config{}, 1, server.Config{MaxBatch: 8})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	keys := make([]uint64, 9) // one past MaxBatch
	frame := wire.AppendFrame(nil, wire.OpLookup, 1, wire.AppendLookup(nil, 0, keys))
	frame = wire.AppendFrame(frame, wire.OpLen, 2, nil) // pipelined follow-up
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(nc)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpErr || f.ID != 1 {
		t.Fatalf("response = %v id %d, want ERR id 1", f.Op, f.ID)
	}
	f, err = r.Next()
	if err != nil || f.Op != wire.OpCount || f.ID != 2 {
		t.Fatalf("follow-up = %+v, %v; want COUNT id 2 (connection must survive)", f, err)
	}
}

// TestCorruptStreamClosesConn sends bytes that fail frame validation
// and expects the server to drop the connection rather than guess at
// resynchronization.
func TestCorruptStreamClosesConn(t *testing.T) {
	addr, _, stop := startServer(t, extbuf.Config{}, 1, server.Config{})
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	good := wire.AppendFrame(nil, wire.OpPing, 1, nil)
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff // break the magic
	if _, err := nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if n, err := nc.Read(buf); err != io.EOF {
		t.Fatalf("read after corrupt frame: n=%d err=%v, want EOF", n, err)
	}
}

// TestShutdownDrains verifies graceful drain: requests in flight when
// Shutdown begins are still answered.
func TestShutdownDrains(t *testing.T) {
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := newServer(t, server.Config{Engine: eng, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	cl, err := client.Dial(lis.Addr().String(), client.Options{Pipeline: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Pipeline a burst, let the server pick it up, then shut down. The
	// drain contract: every request the server received is answered,
	// every ack corresponds to an applied operation, and nothing hangs —
	// requests still in flight on the wire fail cleanly instead.
	var pendings []*client.Pending
	for i := 0; i < 100; i++ {
		p, err := cl.GoInsert([]uint64{uint64(i + 1)}, []uint64{uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	time.Sleep(100 * time.Millisecond) // let the reader ingest the burst
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != server.ErrServerClosed {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
	acked := 0
	for _, p := range pendings {
		if err := p.Wait(ctx); err == nil {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("no pipelined request survived a drain that started after ingestion")
	}
	if n := eng.Len(); n != acked {
		t.Fatalf("engine Len = %d but %d requests were acked", n, acked)
	}
}

// TestConcurrentClients hammers the server from several pooled clients
// under the race detector.
func TestConcurrentClients(t *testing.T) {
	addr, eng, stop := startServer(t, extbuf.Config{}, 4, server.Config{})
	defer stop()

	const clients = 4
	const perClient = 2000
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(cidx int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Conns: 2})
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			ctx := context.Background()
			keys := make([]uint64, 100)
			vals := make([]uint64, 100)
			for i := 0; i < perClient/100; i++ {
				for j := range keys {
					keys[j] = uint64(cidx)<<32 | uint64(i*100+j+1)
					vals[j] = keys[j] * 3
				}
				if _, err := cl.Insert(ctx, keys, vals); err != nil {
					errCh <- fmt.Errorf("insert: %w", err)
					return
				}
				got, found, err := cl.Lookup(ctx, keys, client.ReadToken{})
				if err != nil {
					errCh <- fmt.Errorf("lookup: %w", err)
					return
				}
				for j := range keys {
					if !found[j] || got[j] != vals[j] {
						errCh <- fmt.Errorf("key %d: (%d,%v)", keys[j], got[j], found[j])
						return
					}
				}
			}
		}(cidx)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := eng.Len(); n != clients*perClient {
		t.Fatalf("engine Len = %d, want %d", n, clients*perClient)
	}
}

// TestStatsOverWire checks that the file backend's real-cost counters
// travel the wire.
func TestStatsOverWire(t *testing.T) {
	dir := t.TempDir()
	addr, _, stop := startServer(t, extbuf.Config{Backend: "file", Path: dir + "/t"}, 2, server.Config{})
	defer stop()

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	keys := make([]uint64, 1000)
	vals := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i)
	}
	if _, err := cl.Insert(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != 1000 {
		t.Fatalf("Len = %d, want 1000", st.Len)
	}
	if st.Store.WALFsyncs == 0 || st.Store.Fsyncs == 0 {
		t.Fatalf("durable acks travelled without fsyncs: %+v", st.Store)
	}
	if st.Store.BytesWritten == 0 {
		t.Fatalf("no bytes written reported: %+v", st.Store)
	}
}

// BenchmarkServerPipeline measures end-to-end loopback throughput of
// pipelined insert batches — the number the e2e smoke gate watches.
func BenchmarkServerPipeline(b *testing.B) {
	addr, _, stop := startServer(b, extbuf.Config{}, 4, server.Config{
		Logf: func(string, ...any) {},
	})
	defer stop()
	cl, err := client.Dial(addr, client.Options{Conns: 2, Pipeline: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const batch = 256
	keys := make([]uint64, batch)
	vals := make([]uint64, batch)
	var ctr uint64
	b.ReportAllocs()
	b.ResetTimer()
	depth := 0
	var pendings []*client.Pending
	for i := 0; i < b.N; i++ {
		for j := range keys {
			ctr++
			keys[j] = ctr
			vals[j] = ctr * 3
		}
		p, err := cl.GoUpsert(keys, vals)
		if err != nil {
			b.Fatal(err)
		}
		pendings = append(pendings, p)
		depth++
		if depth == 32 {
			for _, p := range pendings {
				if err := p.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			pendings = pendings[:0]
			depth = 0
		}
	}
	for _, p := range pendings {
		if err := p.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkServePipelinedDurable is the durable ack path under a
// pipelined client: one loopback connection keeping 16 requests of 128
// operations in flight against a file-backed engine, the request kinds
// alternating INSERT/UPSERT/DELETE so that no two neighbours aggregate
// and every request needs its own place behind a commit barrier. One
// iteration is one request.
func BenchmarkServePipelinedDurable(b *testing.B) {
	addr, _, stop := startServer(b, extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(b.TempDir(), "t"),
	}, 2, server.Config{Logf: func(string, ...any) {}})
	defer stop()
	cl, err := client.Dial(addr, client.Options{Conns: 1, Pipeline: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const batch, depth = 128, 16
	// Each in-flight slot owns its operand slices until its reply is in.
	var keys, vals [depth][]uint64
	for i := range keys {
		keys[i], vals[i] = make([]uint64, batch), make([]uint64, batch)
	}
	var pendings [depth]*client.Pending
	// wait collects the reply of the request issued at iteration i.
	wait := func(i int) {
		p := pendings[i%depth]
		if p == nil {
			return
		}
		err := error(nil)
		if i%3 == 2 {
			_, err = p.Deleted(ctx)
		} else {
			err = p.Wait(ctx)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	var block uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		if i >= depth {
			wait(i - depth)
		}
		// Insert a fresh block of keys, overwrite it, delete it.
		if i%3 == 0 {
			block++
		}
		for j := range keys[slot] {
			keys[slot][j] = block*batch + uint64(j) + 1
			vals[slot][j] = uint64(i)
		}
		var p *client.Pending
		switch i % 3 {
		case 0:
			p, err = cl.GoInsert(keys[slot], vals[slot])
		case 1:
			p, err = cl.GoUpsert(keys[slot], vals[slot])
		default:
			p, err = cl.GoDelete(keys[slot])
		}
		if err != nil {
			b.Fatal(err)
		}
		pendings[slot] = p
	}
	for i := max(b.N-depth, 0); i < b.N; i++ {
		wait(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkServePipelinedMixed is the path mem_api_mix's keyed requests
// take: a mem engine, one loopback connection keeping 16 requests of 128
// operations in flight, cycling through that workload's request cycle
// without its SCAN page (15 LOOKUPs, 2 UPSERTs, a CAS and an UPSERTTTL),
// so CAS and UPSERTTTL ride the applier's ring between the lookups.
// Every write stores the value the key already holds, so each CAS swaps
// and the table keeps its shape. One iteration is one request.
func BenchmarkServePipelinedMixed(b *testing.B) {
	addr, eng, stop := startServer(b, extbuf.Config{}, 2, server.Config{Logf: func(string, ...any) {}})
	defer stop()
	const batch, depth, space = 128, 16, 1 << 14
	keys, vals := make([]uint64, space), make([]uint64, space)
	for i := range keys {
		keys[i] = uint64(i) + 1
		vals[i] = keys[i] * 3
	}
	if err := eng.UpsertBatch(keys, vals); err != nil {
		b.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Options{Conns: 1, Pipeline: depth})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const (
		lookup = iota
		upsert
		cas
		upsertTTL
	)
	cycle := []int{
		lookup, lookup, lookup, lookup, upsert, lookup, lookup, lookup, lookup, cas,
		lookup, lookup, lookup, lookup, upsert, lookup, lookup, lookup, upsertTTL,
	}
	far := slices.Repeat([]uint64{client.DeadlineAfter(time.Hour)}, batch)
	var pendings [depth]*client.Pending
	// wait collects the reply of the request issued at iteration i.
	wait := func(i int) {
		p := pendings[i%depth]
		var err error
		switch cycle[i%len(cycle)] {
		case lookup:
			_, _, err = p.Lookup(ctx)
		case upsert:
			err = p.Wait(ctx)
		case cas:
			var swapped []bool
			if swapped, _, err = p.FoundsT(ctx); err == nil && slices.Contains(swapped, false) {
				err = fmt.Errorf("a CAS of a key's own value failed: %v", swapped)
			}
		case upsertTTL:
			_, err = p.Token(ctx)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i >= depth {
			wait(i - depth)
		}
		off := i * batch % space
		k, v := keys[off:off+batch], vals[off:off+batch]
		var p *client.Pending
		switch cycle[i%len(cycle)] {
		case lookup:
			p, err = cl.GoLookup(k)
		case upsert:
			p, err = cl.GoUpsert(k, v)
		case cas:
			p, err = cl.GoCompareSwap(k, v, v)
		case upsertTTL:
			p, err = cl.GoUpsertTTL(k, v, far)
		}
		if err != nil {
			b.Fatal(err)
		}
		pendings[i%depth] = p
	}
	for i := max(b.N-depth, 0); i < b.N; i++ {
		wait(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/s")
}

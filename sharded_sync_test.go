package extbuf_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/internal/server"
	"extbuf/internal/wire"
)

// copyDir snapshots every regular file of src into a fresh directory —
// the on-disk state a kill -9 would leave behind (modulo unsynced page
// cache, which the WAL fsync of Sync has already pushed down for
// everything that matters).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestShardedSyncMakesAcksDurable is the engine-level statement of the
// serving layer's ack contract: after Sync returns (no Flush, no
// checkpoint), the on-disk state alone — snapshotted as a crashed
// process would leave it — recovers every operation.
func TestShardedSyncMakesAcksDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t")
	s, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    path,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 3000)
	vals := make([]uint64, 3000)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 3
	}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Snapshot the files as of the Sync barrier, then let the original
	// engine keep going (mutations after the snapshot must NOT be in it).
	snap := copyDir(t, dir)
	if err := s.InsertBatch([]uint64{999999}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(snap, "t"),
	}, 4)
	if err != nil {
		t.Fatalf("recover from Sync-only snapshot: %v", err)
	}
	defer re.Close()
	if n := re.Len(); n != len(keys) {
		t.Fatalf("recovered Len = %d, want %d", n, len(keys))
	}
	got, found, err := re.LookupBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d: (%d,%v), want (%d,true)", keys[i], got[i], found[i], vals[i])
		}
	}
}

// TestShardedSyncSkipsHeldCall pins the ack barrier's contract: Sync
// covers every call that completed before it was called and waits for
// no call still queued or running. One shard's worker is held inside a
// started upsert; Sync must return regardless, and a crash image taken
// right after it must recover every completed call and not the held one.
func TestShardedSyncSkipsHeldCall(t *testing.T) {
	const held = 1 << 40
	dir := t.TempDir()
	s, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(dir, "t"),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := extbuf.HoldShardApplyForTest(s, held)
	keys := make([]uint64, 2000)
	vals := make([]uint64, len(keys))
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i)*7
	}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	c, err := s.StartBatch(extbuf.BatchUpsert, false, []uint64{held}, []uint64{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the held upsert never reached its shard's worker")
	}

	syncDone := make(chan error, 1)
	go func() { syncDone <- s.Sync() }()
	select {
	case err := <-syncDone:
		if err != nil {
			t.Fatalf("Sync: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sync waits for a call held inside a shard's apply")
	}
	snap := copyDir(t, dir)
	close(release)
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(snap, "t"),
	}, 2)
	if err != nil {
		t.Fatalf("recover from the crash image: %v", err)
	}
	defer re.Close()
	got, found, err := re.LookupBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d: (%d,%v), want (%d,true)", keys[i], got[i], found[i], vals[i])
		}
	}
	if v, ok := re.Lookup(held); ok {
		t.Fatalf("the held upsert, which had not recorded, recovered as %d", v)
	}
}

// TestShardedSyncBesideWritesAndCheckpoints runs Sync in a loop on one
// goroutine while another writes and a third checkpoints: the barrier's
// spill shares each shard's WAL buffer with the worker's record step and
// the checkpoint's spill and Reset, under the log's append lock, and
// every value written must survive a close and reopen.
func TestShardedSyncBesideWritesAndCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t")
	cfg := extbuf.Config{Backend: "file", Path: path}
	s, err := extbuf.NewSharded("buffered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, batch = 200, 64
	keys := make([]uint64, batch)
	vals := make([]uint64, batch)
	done := make(chan struct{})
	errs := make(chan error, 3)
	go func() {
		defer close(done)
		for r := range rounds {
			for i := range keys {
				keys[i], vals[i] = uint64(r%16*batch+i+1), uint64(r)
			}
			if err := s.UpsertBatch(keys, vals); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, barrier := range []func() error{s.Sync, s.Flush} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := barrier(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := extbuf.NewSharded("buffered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k := uint64(1); k <= 16*batch; k++ {
		// Key k was last written in the last round r with r%16 == j.
		j := int(k-1) / batch
		want := uint64(j + (rounds-1-j)/16*16)
		if v, ok := re.Lookup(k); !ok || v != want {
			t.Fatalf("key %d: (%d, %v), want (%d, true)", k, v, ok, want)
		}
	}
}

// TestShardedSyncServerAckSkipsLaterApply: a durable server acknowledges
// a mutation behind a Sync, and that Sync must not wait for a request
// the client sent after it. Request 1 (an upsert) and request 2 (an
// insert, so the applier does not fold the two into one call) are both
// held inside their apply; once request 2 is started, request 1 is let
// go, and its ACK must arrive while request 2 has not completed: it is
// held, or queued behind request 1 when the two keys share a shard.
func TestShardedSyncServerAckSkipsLaterApply(t *testing.T) {
	const key1, key2 = 11, 22
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(t.TempDir(), "t"),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	entered1, release1 := extbuf.HoldShardApplyForTest(eng, key1)
	entered2, release2 := extbuf.HoldShardApplyForTest(eng, key2)
	counted := &startCounter{Sharded: eng}
	srv, err := server.NewServer(server.Config{Engine: counted})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	released2 := false
	defer func() {
		if !released2 {
			close(release2)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		eng.Close()
	}()

	nc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var out []byte
	out = wire.AppendFrame(out, wire.OpUpsert, 1, wire.AppendKV(nil, []uint64{key1}, []uint64{1}))
	out = wire.AppendFrame(out, wire.OpInsert, 2, wire.AppendKV(nil, []uint64{key2}, []uint64{2}))
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered1:
	case <-time.After(10 * time.Second):
		t.Fatal("request 1 never reached its shard's worker")
	}
	for deadline := time.Now().Add(10 * time.Second); counted.started.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("request 2 was never started")
		}
	}
	close(release1)

	frames := make(chan wire.Frame, 2)
	go func() {
		r := wire.NewReader(nc)
		for {
			f, err := r.Next()
			if err != nil {
				close(frames)
				return
			}
			f.Payload = append([]byte(nil), f.Payload...)
			frames <- f
		}
	}()
	next := func(why string) wire.Frame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("connection closed %s", why)
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("no response %s", why)
		}
		return wire.Frame{}
	}
	if f := next("to request 1 while request 2 is held"); f.ID != 1 || f.Op != wire.OpAckT {
		t.Fatalf("first response: %v for request %d, want ACKT for request 1", f.Op, f.ID)
	}
	select {
	case <-entered2:
	case <-time.After(10 * time.Second):
		t.Fatal("request 2 never reached its shard's worker")
	}
	released2 = true
	close(release2)
	if f := next("to request 2"); f.ID != 2 || f.Op != wire.OpAckT {
		t.Fatalf("second response: %v for request %d, want ACKT for request 2", f.Op, f.ID)
	}
}

// startCounter counts the batch calls a server starts on its engine.
type startCounter struct {
	*extbuf.Sharded
	started atomic.Int32
}

func (e *startCounter) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	c, err := e.Sharded.StartBatch(op, ship, keys, vals, vals2, found)
	e.started.Add(1)
	return c, err
}

// TestShardedSyncSurfacesStorageFailure checks that the acknowledgement
// barrier reports a store whose fsyncs fail instead of acking silently.
func TestShardedSyncSurfacesStorageFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := extbuf.NewSharded("knuth", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(dir, "t"),
		Crash:   &extbuf.CrashPlan{FailSync: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync acked despite failing fsyncs")
	}
	// The barrier must KEEP failing: a second concurrent-style Sync may
	// not find the failure consumed by the first.
	if err := s.Sync(); err == nil {
		t.Fatal("second Sync acked after the first reported a failure")
	}
}

// TestShardedStoreStats checks the pipeline-routed backend counter
// aggregation: real counters and space gauges on the durable file
// backend, zeros on mem, and zeros (not a hang) on a closed engine.
func TestShardedStoreStats(t *testing.T) {
	mem, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st := mem.StoreStats(); st != (extbuf.StoreStats{}) {
		t.Fatalf("mem backend StoreStats = %+v, want zeros", st)
	}
	mem.Close()
	if st := mem.StoreStats(); st != (extbuf.StoreStats{}) {
		t.Fatalf("closed engine StoreStats = %+v, want zeros", st)
	}

	const shards = 4
	dir := t.TempDir()
	s, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    filepath.Join(dir, "t"),
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]uint64, 2000)
	vals := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.StoreStats()
	if st.WALFsyncs < shards {
		t.Fatalf("WALFsyncs = %d, want >= %d (one per shard at the barrier)", st.WALFsyncs, shards)
	}
	if st.WALSpills == 0 {
		t.Fatalf("WALSpills = 0 after %d logged inserts", len(keys))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st = s.StoreStats()
	if st.BytesWritten == 0 || st.Fsyncs < shards {
		t.Fatalf("after checkpoint: BytesWritten=%d Fsyncs=%d, want > 0 and >= %d",
			st.BytesWritten, st.Fsyncs, shards)
	}
	// The space gauges: every shard's file spans slots, and not all of
	// them are free after the checkpoint wrote its blocks.
	if st.FileSlots == 0 || st.FreeSlots >= st.FileSlots {
		t.Fatalf("after checkpoint: FileSlots=%d FreeSlots=%d, want a nonzero extent partly in use",
			st.FileSlots, st.FreeSlots)
	}
}

// TestBatchInto covers the caller-provided-storage batch variants: the
// serving layer's allocation-free entry points.
func TestBatchInto(t *testing.T) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []uint64{1, 2, 3, 4, 5}
	vals := []uint64{10, 20, 30, 40, 50}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}

	outV := make([]uint64, 8) // oversized on purpose
	outOK := make([]bool, 8)
	if err := s.LookupBatchInto(keys, outV, outOK); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !outOK[i] || outV[i] != vals[i] {
			t.Fatalf("key %d: (%d,%v), want (%d,true)", keys[i], outV[i], outOK[i], vals[i])
		}
	}
	if err := s.LookupBatchInto(keys, outV[:2], outOK); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("short vals: %v, want ErrBatchLength", err)
	}
	if err := s.LookupBatchInto(keys, outV, outOK[:1]); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("short found: %v, want ErrBatchLength", err)
	}

	if err := s.DeleteBatchInto(keys[:2], outOK); err != nil {
		t.Fatal(err)
	}
	if !outOK[0] || !outOK[1] {
		t.Fatalf("delete results = %v, want hits", outOK[:2])
	}
	if err := s.DeleteBatchInto(keys, outOK[:3]); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("short delete found: %v, want ErrBatchLength", err)
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
}

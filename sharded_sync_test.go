package extbuf_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"extbuf"
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

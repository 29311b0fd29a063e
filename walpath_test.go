package extbuf_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"extbuf"
)

// TestWALPathDedicatedDevice: a durable table with an explicit WALPath
// keeps its log on that path (modeling a dedicated log device), records
// it in the superblock, survives a reopen with either the same explicit
// path or a zero config (which must adopt the stored path), and rejects
// a conflicting explicit path.
func TestWALPathDedicatedDevice(t *testing.T) {
	dir := t.TempDir()
	blocks := filepath.Join(dir, "data", "table.blocks")
	walDev := filepath.Join(dir, "logdev", "table.wal")
	for _, d := range []string{filepath.Dir(blocks), filepath.Dir(walDev)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, Seed: 11,
		Backend: "file", Path: blocks, WALPath: walDev, CacheBlocks: 8,
	}
	tab, err := extbuf.Open("knuth", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		if err := tab.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walDev); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL not on its dedicated path: %v (size %v)", err, fi)
	}
	if _, err := os.Stat(blocks + ".wal"); !os.IsNotExist(err) {
		t.Fatalf("default-path WAL exists despite WALPath: err=%v", err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same explicit WAL path.
	tab, err = extbuf.Open("knuth", cfg)
	if err != nil {
		t.Fatalf("reopen with explicit WALPath: %v", err)
	}
	if got := tab.Len(); got != 500 {
		t.Fatalf("Len after reopen = %d, want 500", got)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero-config reopen adopts the stored WAL path from the superblock.
	tab, err = extbuf.Open("knuth", extbuf.Config{Backend: "file", Path: blocks})
	if err != nil {
		t.Fatalf("zero-config reopen: %v", err)
	}
	for k := uint64(1); k <= 500; k++ {
		if v, ok := tab.Lookup(k); !ok || v != k*7 {
			t.Fatalf("key %d lost (ok=%v v=%d)", k, ok, v)
		}
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// A conflicting explicit WAL path must be rejected: silently opening
	// a fresh empty log would drop the tail of committed operations.
	bad := cfg
	bad.WALPath = filepath.Join(dir, "elsewhere.wal")
	tab, err = extbuf.Open("knuth", bad)
	if tab != nil {
		tab.Close()
	}
	if !errors.Is(err, extbuf.ErrSuperblockMismatch) {
		t.Fatalf("conflicting WALPath: err = %v, want ErrSuperblockMismatch", err)
	}
}

// TestShardedWALPathPerShard: NewSharded derives one WAL file per shard
// under the dedicated path, mirroring the block-file suffixes.
func TestShardedWALPathPerShard(t *testing.T) {
	dir := t.TempDir()
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, Seed: 5,
		Backend: "file", Path: filepath.Join(dir, "tbl"),
		WALPath: filepath.Join(dir, "wal"), CacheBlocks: 8,
	}
	s, err := extbuf.NewSharded("knuth", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, "wal") + shardSuffix(i)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shard %d WAL missing at %s: %v", i, p, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (exercises the concurrent shard-open path under -race).
	s, err = extbuf.NewSharded("knuth", cfg, 4)
	if err != nil {
		t.Fatalf("sharded reopen with WALPath: %v", err)
	}
	defer s.Close()
	if got := s.Len(); got != 1000 {
		t.Fatalf("Len after reopen = %d, want 1000", got)
	}
}

func shardSuffix(i int) string {
	return "." + "shard" + string([]byte{'0' + byte(i/100%10), '0' + byte(i/10%10), '0' + byte(i%10)})
}

// TestDurableFsyncDedup asserts the one-fsync-per-fd-per-barrier fix at
// the table level: Close (checkpoint + final barrier) on an already
// checkpointed table must not queue redundant fsyncs — the elision
// counters prove the dedupe fired instead of the device absorbing the
// duplicates.
func TestDurableFsyncDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.blocks")
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, Seed: 3,
		Backend: "file", Path: path, CacheBlocks: 8,
	}
	tab, err := extbuf.Open("knuth", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 300; k++ {
		if err := tab.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint twice: the first hardens the data, the second hardens
	// the first's log reset. From then on an idle checkpoint must elide
	// both the block-file and WAL fsyncs.
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	mid := tab.StoreStats()
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	post := tab.StoreStats()
	if post.Fsyncs != mid.Fsyncs {
		t.Fatalf("idle checkpoint issued %d block fsyncs", post.Fsyncs-mid.Fsyncs)
	}
	if post.FsyncsElided <= mid.FsyncsElided {
		t.Fatalf("idle checkpoint elided no block fsync (elided %d -> %d)", mid.FsyncsElided, post.FsyncsElided)
	}
	if post.WALFsyncsElided <= mid.WALFsyncsElided {
		t.Fatalf("idle checkpoint elided no WAL fsync (elided %d -> %d)", mid.WALFsyncsElided, post.WALFsyncsElided)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
}

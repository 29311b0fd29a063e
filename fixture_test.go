package extbuf_test

import (
	"os"
	"path/filepath"
	"testing"

	"extbuf"
)

// TestOpenParentWrittenTable opens a durable table written by the code
// as it stood before frames became slot images (PR 21's commit: frames
// encoded entry by entry, written through the writeback pool) and
// requires every key to read back; then it lets the current code
// rewrite part of the file and reopen it. The on-disk formats are
// unchanged, so neither direction needs a version bump.
//
// testdata/pr21_table was generated once, from a checkout of that
// commit, by: Open("buffered", {Backend: "file", BlockSize: 8,
// MemoryWords: 256, CacheBlocks: 4}); Insert(k, k*k+7) for k in 1..160;
// Delete every k divisible by 3; Flush; Upsert(k, k+1) for every k
// divisible by 5; Close.
func TestOpenParentWrittenTable(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.blocks", "t.blocks.ckpt", "t.blocks.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "pr21_table", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := func(k uint64) (uint64, bool) {
		switch {
		case k%5 == 0:
			return k + 1, true
		case k%3 == 0:
			return 0, false
		}
		return k*k + 7, true
	}
	cfg := extbuf.Config{Backend: "file", Path: filepath.Join(dir, "t.blocks")}
	verify := func(tbl extbuf.Table, wantLen int, shift uint64) {
		t.Helper()
		if tbl.Len() != wantLen {
			t.Fatalf("Len = %d, want %d", tbl.Len(), wantLen)
		}
		for k := uint64(1); k <= 160; k++ {
			wv, wok := want(k)
			if wok && k%2 == 0 {
				wv += shift
			}
			if v, ok := tbl.Lookup(k); ok != wok || v != wv {
				t.Fatalf("Lookup(%d) = %d, %v; want %d, %v", k, v, ok, wv, wok)
			}
		}
	}

	tbl, err := extbuf.Open("buffered", cfg)
	if err != nil {
		t.Fatalf("open the parent-written table: %v", err)
	}
	verify(tbl, 117, 0)
	for k := uint64(2); k <= 160; k += 2 {
		if v, ok := want(k); ok {
			if err := tbl.Upsert(k, v+1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err = extbuf.Open("buffered", cfg)
	if err != nil {
		t.Fatalf("reopen after rewriting: %v", err)
	}
	defer tbl.Close()
	verify(tbl, 117, 1000)
}

package extbuf_test

import (
	"os"
	"path/filepath"
	"testing"

	"extbuf"
)

// copyFixture copies the named files of testdata/fixture into dir.
func copyFixture(t *testing.T, fixture, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fixtureValue is what both table fixtures below hold for key k after
// their op sequence: Insert(k, k*k+7), Delete every k divisible by 3,
// Upsert(k, k+1) for every k divisible by 5.
func fixtureValue(k uint64) (uint64, bool) {
	switch {
	case k%5 == 0:
		return k + 1, true
	case k%3 == 0:
		return 0, false
	}
	return k*k + 7, true
}

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
	copyFixture(t, "pr21_table", dir, "t.blocks", "t.blocks.ckpt", "t.blocks.wal")
	cfg := extbuf.Config{Backend: "file", Path: filepath.Join(dir, "t.blocks")}
	verify := func(tbl extbuf.Table, wantLen int, shift uint64) {
		t.Helper()
		if tbl.Len() != wantLen {
			t.Fatalf("Len = %d, want %d", tbl.Len(), wantLen)
		}
		for k := uint64(1); k <= 160; k++ {
			wv, wok := fixtureValue(k)
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
		if v, ok := fixtureValue(k); ok {
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

// TestBufferedTableBytesMatchParent is TestOpenParentWrittenTable's
// converse: after one op sequence, a table holds exactly the blocks the
// last code with the O_DIRECT tier (PR 24's commit, ce82ae2) wrote for
// it. Both tables are read through their checkpoint's mapping, block by
// logical ID, so placement — which copy-on-write chooses at every flush
// and eviction batches change on purpose — does not enter; the blocks'
// contents, chain pointers and the set of written IDs do. linear and
// knuth are the structures whose blocks are deterministic; the buffered
// structure's differ even parent against parent. That the parent opens
// the tables this code writes was checked with the same clone
// (CHANGES.md, PR 25).
//
// testdata/pr24_buffered_tables was generated once, from a clone of
// that commit, by: Open(kind, {Backend: "file", BlockSize: 8,
// MemoryWords: 256, CacheBlocks: 4, ExpectedItems: 512}); Insert(k,
// k*k+7) for k in 1..300; Delete every k divisible by 3; Flush;
// Upsert(k, k+1) for every k divisible by 5; Close.
func TestBufferedTableBytesMatchParent(t *testing.T) {
	for _, kind := range []string{"linear", "knuth"} {
		dir := t.TempDir()
		path := filepath.Join(dir, kind+".blocks")
		tbl, err := extbuf.Open(kind, extbuf.Config{
			Backend: "file", Path: path,
			BlockSize: 8, MemoryWords: 256, CacheBlocks: 4, ExpectedItems: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 300; k++ {
			if err := tbl.Insert(k, k*k+7); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(3); k <= 300; k += 3 {
			tbl.Delete(k)
		}
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(5); k <= 300; k += 5 {
			if err := tbl.Upsert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := extbuf.LogicalBlocksForTest(path)
		if err != nil {
			t.Fatal(err)
		}
		parentDir := filepath.Join(dir, "parent")
		if err := os.Mkdir(parentDir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyFixture(t, "pr24_buffered_tables", parentDir, kind+".blocks", kind+".blocks.ckpt")
		want, err := extbuf.LogicalBlocksForTest(filepath.Join(parentDir, kind+".blocks"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d logical blocks, the parent's table has %d", kind, len(got), len(want))
		}
		written := 0
		for id := range got {
			if got[id] != want[id] {
				t.Fatalf("%s: block %d = %q, the parent's is %q", kind, id, got[id], want[id])
			}
			if got[id] != "" {
				written++
			}
		}
		if written == 0 {
			t.Fatalf("%s: no block written", kind)
		}
	}
}

// TestIOModeSuperblockAdoption opens a table created under the deleted
// O_DIRECT tier (Config.IOMode "odirect") by the last code that had it,
// PR 24's commit ce82ae2, with a zero Config: recovery replays the
// tier's sector-padded log through the plain scan, the table serves and
// takes writes through buffered I/O with its padded slot stride, and
// the stride is still recorded after a checkpoint and a reopen.
//
// testdata/pr24_odirect_table was generated once, from a clone of that
// commit, on ext4, which granted O_DIRECT (StoreStats.DirectIO was 1,
// no fallback; the bytes are the same either way), by: Open("buffered",
// {Backend: "file", IOMode: "odirect", BlockSize: 8, MemoryWords: 256,
// CacheBlocks: 4}); Insert(k, k*k+7) for k in 1..160; Delete every k
// divisible by 3; Flush; Upsert(k, k+1) for every k divisible by 5;
// Sync; exit without Close, as a kill -9 after a Sync leaves a table. Its slots are 4096 bytes, and its WAL holds the 32 upserts,
// zero-padded to a sector, ahead of stale records of the generation
// before the checkpoint.
func TestIOModeSuperblockAdoption(t *testing.T) {
	const sector = 4096
	dir := t.TempDir()
	copyFixture(t, "pr24_odirect_table", dir, "t.blocks", "t.blocks.ckpt", "t.blocks.wal")
	path := filepath.Join(dir, "t.blocks")
	cfg := extbuf.Config{Backend: "file", Path: path}
	model := make(map[uint64]uint64)
	for k := uint64(1); k <= 160; k++ {
		if v, ok := fixtureValue(k); ok {
			model[k] = v
		}
	}
	verify := func(tbl extbuf.Table, when string) {
		t.Helper()
		if tbl.Len() != len(model) {
			t.Fatalf("%s: Len = %d, want %d", when, tbl.Len(), len(model))
		}
		for k := uint64(1); k <= 220; k++ {
			wv, wok := model[k]
			if v, ok := tbl.Lookup(k); ok != wok || v != wv {
				t.Fatalf("%s: Lookup(%d) = %d, %v; want %d, %v", when, k, v, ok, wv, wok)
			}
		}
	}
	checkLayout := func(when string) {
		t.Helper()
		layout, got, err := extbuf.SlotLayoutForTest(path)
		if err != nil || layout != "odirect" || got != sector {
			t.Fatalf("%s: superblock records layout %q, sector %d (%v); want odirect, %d", when, layout, got, err, sector)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size()%sector != 0 {
			t.Fatalf("%s: block file is %d bytes, not a whole number of %d-byte slots", when, info.Size(), sector)
		}
	}

	checkLayout("as the parent left it")
	tbl, err := extbuf.Open("buffered", cfg)
	if err != nil {
		t.Fatalf("open the parent-written odirect table: %v", err)
	}
	verify(tbl, "after recovery")
	for k := uint64(7); k <= 160; k += 7 {
		if err := tbl.Upsert(k, k+7000); err != nil {
			t.Fatal(err)
		}
		model[k] = k + 7000
	}
	for k := uint64(11); k <= 160; k += 11 {
		tbl.Delete(k)
		delete(model, k)
	}
	for k := uint64(161); k <= 220; k++ {
		if err := tbl.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 3
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	verify(tbl, "after Flush")
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	checkLayout("after a checkpoint")

	tbl, err = extbuf.Open("buffered", cfg)
	if err != nil {
		t.Fatalf("reopen after mutating: %v", err)
	}
	defer tbl.Close()
	verify(tbl, "after reopen")
}

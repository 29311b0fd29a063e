package iomodel

import (
	"path/filepath"
	"testing"
)

// TestScanResistantEviction is the regression test for the 2Q/CLOCK-
// Pro-lite policy: a sequential scan over 4x the pool capacity,
// repeated for several passes, must not evict a concurrently
// re-referenced hot set. The hot set's hit rate (measured via
// FileStats around each hot sweep) must stay above a floor, the ghost
// list must have promoted at least one re-faulted hot block, and the
// scan itself must not have earned hot status (its re-touch interval
// exceeds the ghost window).
func TestScanResistantEviction(t *testing.T) {
	const (
		cacheCap = 64
		hotN     = cacheCap / 4
		scanN    = 4 * cacheCap
		passes   = 6
		interval = 48 // scan reads between hot sweeps
	)
	st, err := NewTempFileStore(4, cacheCap)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	alloc := func(n int) []BlockID {
		ids := make([]BlockID, n)
		for i := range ids {
			ids[i] = st.Alloc()
			st.WriteBlock(ids[i], []Entry{{Key: uint64(ids[i]), Val: 1}})
		}
		return ids
	}
	hot := alloc(hotN)
	scan := alloc(scanN)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	readHot := func() (misses int64) {
		before := st.Stats().CacheMisses
		for _, id := range hot {
			st.ReadBlock(id, nil)
		}
		return st.Stats().CacheMisses - before
	}
	// Warmup pass: fault the hot set back in (the allocation of the
	// scan blocks evicted it) and let the ghost list learn it.
	readHot()
	for s, n := 0, 0; s < scanN; s++ {
		st.ReadBlock(scan[s], nil)
		if n++; n == interval {
			n = 0
			readHot()
		}
	}

	var hotReads, hotMisses int64
	for p := 0; p < passes; p++ {
		for s, n := 0, 0; s < scanN; s++ {
			st.ReadBlock(scan[s], nil)
			if n++; n == interval {
				n = 0
				hotReads += hotN
				hotMisses += readHot()
			}
		}
	}
	stats := st.Stats()
	hitRate := 1 - float64(hotMisses)/float64(hotReads)
	t.Logf("hot reads %d, misses %d (hit rate %.3f); GhostHits %d, Evictions %d",
		hotReads, hotMisses, hitRate, stats.GhostHits, stats.Evictions)
	if hitRate < 0.75 {
		t.Fatalf("scan evicted the hot set: hit rate %.3f < 0.75 over %d hot reads", hitRate, hotReads)
	}
	if stats.GhostHits == 0 {
		t.Fatal("no ghost promotions: the scan-resistance mechanism never engaged")
	}
	// The scan's own re-touch interval (4x capacity) exceeds the ghost
	// window (1x capacity), so the scan must not promote itself.
	if stats.GhostHits > int64(hotN*(passes+2)) {
		t.Fatalf("GhostHits = %d: the scan itself earned hot status", stats.GhostHits)
	}
	if stats.Evictions < int64(passes*scanN/2) {
		t.Fatalf("Evictions = %d: the scan did not actually stress the pool", stats.Evictions)
	}
}

// BenchmarkEvictionScan measures steady-state eviction traffic: a
// working set far larger than the pool read sequentially, with the
// scan-resistant sweep and write clustering on the miss path.
func BenchmarkEvictionScan(b *testing.B) {
	const cacheCap = 256
	const blocks = 4 * cacheCap
	st, err := NewTempFileStore(64, cacheCap)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ids := make([]BlockID, blocks)
	for i := range ids {
		ids[i] = st.Alloc()
		st.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: 1}})
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	var buf []Entry
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf = st.ReadBlock(ids[n%blocks], buf[:0])
	}
	_ = buf
}

// poolMissStore builds the store both pool-miss benchmarks run on: a
// durable store as a table opens it, 16 k blocks
// of 48 entries behind a 256-frame pool, checkpointed once so the loop
// starts on a committed epoch. Nearly every access is a miss.
func poolMissStore(b *testing.B) (*FileStore, []BlockID) {
	const cacheCap, blocks = 256, 16 << 10
	st, err := OpenFileStore(filepath.Join(b.TempDir(), "miss.blocks"), 64, cacheCap, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ids := make([]BlockID, blocks)
	entries := make([]Entry, 48)
	for i := range ids {
		ids[i] = st.Alloc()
		for j := range entries {
			entries[j] = Entry{Key: uint64(i*64 + j), Val: uint64(j)}
		}
		st.WriteBlock(ids[i], entries)
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	st.EndEpoch()
	return st, ids
}

// xorshift steps the benchmarks' block picker.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

// reportSyscalls adds the store's file syscalls per iteration since
// before to the benchmark's columns.
func reportSyscalls(b *testing.B, st *FileStore, before FileStats) {
	after := st.Stats()
	n := after.ReadSyscalls + after.WriteSyscalls - before.ReadSyscalls - before.WriteSyscalls
	b.ReportMetric(float64(n)/float64(b.N), "syscalls/op")
}

// BenchmarkPoolMissRMW is the served engine's write path at the store:
// read a random block, change one entry, write the block back. Each
// iteration is one pread into a frame and — once the pool is dirty —
// one dirty eviction out of one: 2 syscalls/op, 0 allocs/op.
func BenchmarkPoolMissRMW(b *testing.B) {
	st, ids := poolMissStore(b)
	var buf []Entry
	x := uint64(0x9e3779b97f4a7c15)
	before := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x = xorshift(x)
		id := ids[x%uint64(len(ids))]
		buf = st.ReadBlock(id, buf[:0])
		buf[n%len(buf)].Val = uint64(n)
		st.WriteBlock(id, buf)
	}
	b.StopTimer()
	reportSyscalls(b, st, before)
}

// BenchmarkPoolMissRead is the lookup side: a random block read, one
// pread and a clean eviction per iteration.
func BenchmarkPoolMissRead(b *testing.B) {
	st, ids := poolMissStore(b)
	var buf []Entry
	x := uint64(0x9e3779b97f4a7c15)
	before := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x = xorshift(x)
		buf = st.ReadBlock(ids[x%uint64(len(ids))], buf[:0])
	}
	b.StopTimer()
	reportSyscalls(b, st, before)
	_ = buf
}

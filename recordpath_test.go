package extbuf_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"extbuf"
	"extbuf/internal/wal"
)

// The record path: a mutation becomes records in one place, the guard's
// record step after the apply, which writes a durable table's WAL and
// then the ship sink. These tests pin that the two streams are the same
// records in the same order, and that a record the WAL refuses is
// neither shipped nor undone in the table.

// recordSink captures shipped records in arrival order.
type recordSink struct {
	mu   sync.Mutex
	recs []wal.Record // LSN unset: compared by op, key and value
}

func (s *recordSink) ship(op uint8, keys, vals []uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := uint64(len(s.recs)) + 1
	for i, k := range keys {
		r := wal.Record{Op: wal.Op(op), Key: k}
		if vals != nil {
			r.Val = vals[i]
		}
		s.recs = append(s.recs, r)
	}
	return first, nil
}

// walRecords reads the records of the WAL at path as recovery would, from
// a copy, so the live log is not cut or recycled under its owner.
func walRecords(t *testing.T, path string) []wal.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "copy.wal")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(cp, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	for i := range recs {
		recs[i].LSN = 0
	}
	return recs
}

// TestRecordPathSameRecords drives every mutation kind through a durable
// two-shard engine with a capturing ship sink — including a refused
// compare-and-swap, a missed delete, an expire of an absent key, a
// multi-key upsert-ttl and a sweep — and requires each shard's WAL to
// hold exactly the records that shard shipped, in the same order.
func TestRecordPathSameRecords(t *testing.T) {
	clk := &testClock{}
	clk.now.Store(100)
	path := filepath.Join(t.TempDir(), "rec.tbl")
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 1024, Seed: 3,
		Backend: "file", Path: path,
	}.WithClock(clk.fn())
	s, err := extbuf.NewSharded("buffered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink := &recordSink{}
	s.SetShip(sink.ship)

	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var keys, vals []uint64
	for k := uint64(1); k <= 16; k++ {
		keys, vals = append(keys, k), append(vals, k*10)
	}
	must(s.InsertBatchShip(keys, vals))
	must(s.UpsertBatchShip(keys[:8], vals[8:]))
	found := make([]bool, 4)
	must(s.DeleteBatchShipInto([]uint64{3, 1000}, found)) // 1000 misses
	if !found[0] || found[1] {
		t.Fatalf("delete found = %v, want [true false]", found[:2])
	}
	must(extbuf.BatchForTest(s, extbuf.BatchExpire, true, []uint64{4, 2000, 5}, []uint64{150, 150, 1 << 40}, nil, found)) // 2000 is absent
	if !found[0] || found[1] || !found[2] {
		t.Fatalf("expire found = %v, want [true false true]", found[:3])
	}
	must(s.UpsertTTLBatchShip([]uint64{30, 31, 32, 33}, []uint64{300, 310, 320, 330}, []uint64{900, 910, 920, 930}))
	// 6 swaps; 7 offers a stale value and 3000 is absent: neither writes
	// a record.
	must(s.CompareSwapBatchShip([]uint64{6, 7, 3000}, []uint64{140, 1, 1}, []uint64{600, 700, 800}, found))
	if !found[0] || found[1] || found[2] {
		t.Fatalf("cas swapped = %v, want [true false false]", found[:3])
	}
	clk.now.Store(200)
	if n, _, err := s.SweepExpired(64); err != nil || n != 1 {
		t.Fatalf("sweep = %d, %v; want key 4 swept", n, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	shardOf := map[uint64]int{}
	var logs [][]wal.Record
	for sh := 0; sh < s.NumShards(); sh++ {
		recs := walRecords(t, fmt.Sprintf("%s.shard%03d.wal", path, sh))
		for _, r := range recs {
			shardOf[r.Key] = sh
		}
		logs = append(logs, recs)
	}
	shipped := make([][]wal.Record, s.NumShards())
	for _, r := range sink.recs {
		sh, ok := shardOf[r.Key]
		if !ok {
			t.Fatalf("shipped %+v is in no shard's WAL", r)
		}
		shipped[sh] = append(shipped[sh], r)
	}
	total := 0
	for sh := range logs {
		if !slices.Equal(logs[sh], shipped[sh]) {
			t.Fatalf("shard %d: WAL records differ from its shipped records\n WAL:     %v\n shipped: %v", sh, logs[sh], shipped[sh])
		}
		total += len(logs[sh])
	}
	// 16 inserts, 8 upserts, 2 deletes, 2 expires, 4+4 upsert-ttl
	// records, 1 swap and 1 swept delete.
	if total != 38 {
		t.Fatalf("%d records, want 38", total)
	}
	for _, r := range slices.Concat(logs...) {
		if r.Key == 7 && r.Val == 700 || r.Key == 2000 || r.Key == 3000 {
			t.Fatalf("a refused or absent-key operation wrote %+v", r)
		}
	}
}

// TestRecordPathSweepAfterLogFailure: once a durable table's WAL has
// failed, a sweep that pops a due key must report the log's error and
// ship nothing, and the key must stay gone — its deadline is spent, so
// leaving it in the table would make it live again.
func TestRecordPathSweepAfterLogFailure(t *testing.T) {
	const key = 7
	open := func(failAt int64) (*extbuf.Sharded, *testClock, int64) {
		t.Helper()
		clk := &testClock{}
		clk.now.Store(100)
		cfg := extbuf.Config{
			BlockSize: 16, MemoryWords: 512, ExpectedItems: 512, Seed: 5,
			Backend: "file", Path: filepath.Join(t.TempDir(), "sweep.tbl"),
			Crash: &extbuf.CrashPlan{FailAfterWrites: failAt},
		}.WithClock(clk.fn())
		eng, err := extbuf.NewSharded("buffered", cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		found := make([]bool, 1)
		if err := eng.Upsert(key, 70); err != nil {
			t.Fatal(err)
		}
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{key}, []uint64{200}, nil, found); err != nil || !found[0] {
			t.Fatalf("expire: %v %v", found[0], err)
		}
		return eng, clk, extbuf.ShardCrasherForTest(eng, 0).Writes()
	}
	// A fault-free run counts the writes before the Sync; the real run
	// dies at the Sync's first write, its spill, and the log stays failed.
	eng, _, writes := open(1 << 40)
	eng.Close()
	eng, clk, _ := open(writes + 1)
	defer eng.Close()
	if err := eng.Sync(); err == nil {
		t.Fatal("the Sync's spill did not hit the crash point")
	}
	sink := &recordSink{}
	eng.SetShip(sink.ship)
	clk.now.Store(300)
	n, lsn, err := eng.SweepExpired(8)
	if err == nil {
		t.Fatalf("sweep over a failed log: swept %d, no error", n)
	}
	if _, ok := eng.Lookup(key); ok {
		t.Fatal("the swept key is live again")
	}
	if len(sink.recs) != 0 || lsn != 0 {
		t.Fatalf("the sweep shipped %v (LSN %d) whose records the WAL refused", sink.recs, lsn)
	}
}

package wal

import (
	"path/filepath"
	"testing"
)

// commitRecords is one commit wave's share of a shard's log on the
// served durable path: ~400 ops per wave over two shards, less lookups.
const commitRecords = 325

// BenchmarkLogCommit is the WAL side of a commit wave: append a wave's
// records and Sync, with a checkpoint's Reset every 64 waves — so all but
// the first pass overwrite extent the log kept. The fsync dominates; the
// number is what a wave waits for the log device.
func BenchmarkLogCommit(b *testing.B) {
	l, _, err := Open(filepath.Join(b.TempDir(), "bench.wal"), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			if err := l.Reset(l.NextLSN()); err != nil {
				b.Fatal(err)
			}
		}
		for j := uint64(0); j < commitRecords; j++ {
			if _, err := l.Append(OpUpsert, j, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/commit")
}

// BenchmarkShipAppendFsync is the ship-log side of the same wave: one
// batch append and the fsync behind the acknowledgement. The ship log is
// append-only, so every block is new extent, taken a reserve chunk at a
// time.
func BenchmarkShipAppendFsync(b *testing.B) {
	s, err := OpenShip(filepath.Join(b.TempDir(), "bench.ship"), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys, vals := make([]uint64, 2*commitRecords), make([]uint64, 2*commitRecords)
	for i := range keys {
		keys[i], vals[i] = uint64(i), uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(OpUpsert, keys, vals); err != nil {
			b.Fatal(err)
		}
		if err := s.Fsync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/commit")
}

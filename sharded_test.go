package extbuf_test

import (
	"path/filepath"
	"sync"
	"testing"

	"extbuf"
	"extbuf/internal/xrand"
)

func TestShardedBasic(t *testing.T) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 4 {
		t.Fatalf("shards = %d", s.NumShards())
	}
	rng := xrand.New(5)
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := s.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, k := range keys {
		v, ok := s.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost", k)
		}
	}
	if s.Stats().IOs() == 0 {
		t.Fatal("no I/O recorded")
	}
	if s.MemoryUsed() == 0 {
		t.Fatal("no memory charge visible")
	}
}

func TestShardedRoundsUp(t *testing.T) {
	s, err := extbuf.NewSharded("knuth", extbuf.Config{BlockSize: 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 4 {
		t.Fatalf("shards = %d, want rounding to 4", s.NumShards())
	}
}

func TestShardedRejects(t *testing.T) {
	if _, err := extbuf.NewSharded("buffered", extbuf.Config{}, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := extbuf.NewSharded("nope", extbuf.Config{}, 2); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

func TestShardedConcurrent(t *testing.T) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + w))
			keys := make([]uint64, perWorker)
			for i := range keys {
				// Partition the key space by worker so Insert's
				// fresh-key contract holds across goroutines.
				keys[i] = uint64(w)<<56 | rng.Uint64()>>8
				if err := s.Upsert(keys[i], uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
			for i, k := range keys {
				v, ok := s.Lookup(k)
				if !ok || v != uint64(i) {
					t.Errorf("worker %d: key %d lost", w, k)
					return
				}
			}
			for i, k := range keys {
				if i%3 == 0 && !s.Delete(k) {
					t.Errorf("worker %d: delete failed", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := workers * (perWorker - (perWorker+2)/3)
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d want %d", got, want)
	}
}

func TestShardedBalance(t *testing.T) {
	// Shard selection must spread keys evenly.
	s, err := extbuf.NewSharded("knuth", extbuf.Config{BlockSize: 16, Seed: 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := xrand.New(11)
	const n = 16000
	for i := 0; i < n; i++ {
		if err := s.Insert(rng.Uint64(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	// Aggregate I/O should reflect ~n inserts at ~1 I/O each for knuth;
	// gross imbalance would show up as far more I/Os (overlong chains).
	perOp := float64(s.Stats().IOs()) / n
	if perOp > 1.2 {
		t.Fatalf("per-op I/O %.3f suggests shard imbalance", perOp)
	}
}

// TestIOModeShardedDurable drives the full engine (sharded, durable,
// group commit) through insert/flush/reopen. It ran once per I/O mode
// while there were several; buffered is the one left.
func TestIOModeShardedDurable(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		cfg := extbuf.Config{Backend: "file", Path: filepath.Join(t.TempDir(), "eng.blocks"), BlockSize: 16}
		eng, err := extbuf.NewSharded("buffered", cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		const n = 5000
		for i := uint64(1); i <= n; i++ {
			if err := eng.Insert(i, i^0xabc); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		eng2, err := extbuf.NewSharded("buffered", cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer eng2.Close()
		for i := uint64(1); i <= n; i += 131 {
			if v, ok := eng2.Lookup(i); !ok || v != i^0xabc {
				t.Fatalf("Lookup(%d) = %d, %v after reopen", i, v, ok)
			}
		}
	})
}

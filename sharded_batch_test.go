package extbuf_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extbuf"
	"extbuf/internal/xrand"
)

// TestBatchOrderPreserved is the fan-out contract: batch results come
// back at the positions of their inputs, whatever shard each key landed
// on, including duplicate keys within one batch.
func TestBatchOrderPreserved(t *testing.T) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 5000
	rng := xrand.New(7)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = uint64(i) * 3
	}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}

	// Query in an order unrelated to insertion, with duplicates and
	// misses interleaved, so every result slot must really be matched
	// to its own input position.
	q := make([]uint64, 0, 2*n)
	want := make([]uint64, 0, 2*n)
	wantOK := make([]bool, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		q = append(q, keys[i])
		want = append(want, vals[i])
		wantOK = append(wantOK, true)
		if i%5 == 0 {
			q = append(q, keys[i]^0xdeadbeef) // almost surely absent
			want = append(want, 0)
			wantOK = append(wantOK, false)
		}
	}
	got, found, err := s.LookupBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(q) || len(found) != len(q) {
		t.Fatalf("result lengths %d/%d, want %d", len(got), len(found), len(q))
	}
	for i := range q {
		if found[i] != wantOK[i] {
			t.Fatalf("pos %d: found = %v, want %v", i, found[i], wantOK[i])
		}
		if found[i] && got[i] != want[i] {
			t.Fatalf("pos %d: value = %d, want %d", i, got[i], want[i])
		}
	}

	// DeleteBatch flags also come back in input order.
	del := []uint64{keys[10], keys[10] ^ 1, keys[20], keys[10]}
	hits, err := s.DeleteBatch(del)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := []bool{true, false, true, false} // second delete of keys[10] misses
	for i := range hits {
		if hits[i] != wantHits[i] {
			t.Fatalf("delete pos %d: %v, want %v", i, hits[i], wantHits[i])
		}
	}
}

// TestBatchMatchesSequential: a batched replay of a stream must leave
// the same table state and — per-shard order being preserved — the same
// simulated I/O counters as the one-at-a-time replay on the mem
// backend.
func TestBatchMatchesSequential(t *testing.T) {
	cfg := extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: 11}
	const n = 4000
	rng := xrand.New(13)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = uint64(i)
	}

	single, err := extbuf.NewSharded("buffered", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for i := range keys {
		if err := single.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := extbuf.NewSharded("buffered", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	for at := 0; at < n; at += 96 {
		end := min(at+96, n)
		if err := batched.InsertBatch(keys[at:end], vals[at:end]); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := batched.Stats(), single.Stats(); got != want {
		t.Fatalf("batched counters %+v, sequential %+v", got, want)
	}
	if got, want := batched.Len(), single.Len(); got != want {
		t.Fatalf("batched Len %d, sequential %d", got, want)
	}
}

// TestBatchErrors covers the batch-API error contract.
func TestBatchErrors(t *testing.T) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch([]uint64{1, 2}, []uint64{1}); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("length mismatch err = %v, want ErrBatchLength", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := s.InsertBatch([]uint64{1}, []uint64{1}); !errors.Is(err, extbuf.ErrClosed) {
		t.Fatalf("insert after close = %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, extbuf.ErrClosed) {
		t.Fatalf("flush after close = %v, want ErrClosed", err)
	}
	if _, _, err := s.LookupBatch([]uint64{1}); !errors.Is(err, extbuf.ErrClosed) {
		t.Fatalf("lookup after close = %v, want ErrClosed", err)
	}
	if _, err := s.DeleteBatch([]uint64{1}); !errors.Is(err, extbuf.ErrClosed) {
		t.Fatalf("delete after close = %v, want ErrClosed", err)
	}
}

// TestBatchConcurrentStress hammers the engine with concurrent batch
// mutators, batch readers and non-blocking monitors; run under -race it
// is the pipeline's soundness test (disjoint result slots, atomic
// counter reads, channel discipline). The subtest is "sync" because every
// batch call applies before it returns — there is no write-behind path.
func TestBatchConcurrentStress(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		s, err := extbuf.NewSharded("buffered", extbuf.Config{
			BlockSize: 16, MemoryWords: 512, Seed: 7,
		}, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		workers, perWorker, batch := 6, 1200, 48
		if testing.Short() {
			perWorker = 300
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w+1) << 40
				for at := 0; at < perWorker; at += batch {
					end := min(at+batch, perWorker)
					keys := make([]uint64, 0, batch)
					vals := make([]uint64, 0, batch)
					for i := at; i < end; i++ {
						keys = append(keys, base+uint64(i))
						vals = append(vals, uint64(i))
					}
					if err := s.InsertBatch(keys, vals); err != nil {
						errs <- fmt.Errorf("worker %d insert: %w", w, err)
						return
					}
					got, found, err := s.LookupBatch(keys)
					if err != nil {
						errs <- fmt.Errorf("worker %d lookup: %w", w, err)
						return
					}
					for i := range keys {
						// This worker's own batch applied before the
						// lookup on every shard: read-your-writes.
						if !found[i] || got[i] != vals[i] {
							errs <- fmt.Errorf("worker %d: key %d not visible after insert", w, keys[i])
							return
						}
					}
					st := s.Stats() // non-blocking monitor path
					if st.Reads < 0 || st.Writes < 0 {
						errs <- fmt.Errorf("worker %d: negative counters %+v", w, st)
						return
					}
					if s.MemoryUsed() < 0 {
						errs <- fmt.Errorf("worker %d: negative memory", w)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if got, want := s.Len(), workers*perWorker; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
	})
}

// TestCloseRacesOperations closes the engine while other goroutines
// hammer every entry point. The contract: no panic ever (no send on a
// closed channel), and operations either complete normally or report
// the closed state (ErrClosed / zero results).
func TestCloseRacesOperations(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: uint64(trial + 1)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				base := uint64(g+1) << 40
				for i := 0; i < 200; i++ {
					k := base + uint64(i)
					if err := s.Insert(k, k); err != nil && !errors.Is(err, extbuf.ErrClosed) {
						t.Errorf("insert: %v", err)
						return
					}
					if _, _, err := s.LookupBatch([]uint64{k}); err != nil && !errors.Is(err, extbuf.ErrClosed) {
						t.Errorf("lookup: %v", err)
						return
					}
					s.Len()
					s.Stats()
					if err := s.Flush(); err != nil && !errors.Is(err, extbuf.ErrClosed) {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestFlushBarrierFileBackend checks the checkpoint barrier on the file
// backend: Flush is the point at which every shard's mutations have been
// applied and synced to its backing file.
func TestFlushBarrierFileBackend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wb")
	s, err := extbuf.NewSharded("knuth", extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 4096, Seed: 5,
		Backend: "file", Path: path, CacheBlocks: 8,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 3000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 7
	}
	for at := 0; at < n; at += 128 {
		end := min(at+128, n)
		if err := s.InsertBatch(keys[at:end], vals[at:end]); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// After the barrier every queued insert has been applied...
	if got := s.Len(); got != n {
		t.Fatalf("Len after Flush = %d, want %d", got, n)
	}
	got, found, err := s.LookupBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d lost after Flush", keys[i])
		}
	}
	// ...and synced: every shard file exists and holds flushed frames
	// while the engine is still open.
	for i := 0; i < s.NumShards(); i++ {
		shardPath := fmt.Sprintf("%s.shard%03d", path, i)
		info, err := os.Stat(shardPath)
		if err != nil {
			t.Fatalf("shard %d file missing after Flush: %v", i, err)
		}
		if info.Size() == 0 {
			t.Fatalf("shard %d file empty after Flush barrier", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestTableFlush: the Table-level flush seam the engine builds on — a
// no-op nil on mem, a real sync on file.
func TestTableFlush(t *testing.T) {
	mem, err := extbuf.Open("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Flush(); err != nil {
		t.Fatalf("mem flush: %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("mem close: %v", err)
	}

	path := filepath.Join(t.TempDir(), "t.blocks")
	file, err := extbuf.Open("knuth", extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 1024,
		Backend: "file", Path: path, CacheBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		if err := file.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := file.Flush(); err != nil {
		t.Fatalf("file flush: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("backing file empty after Table.Flush")
	}
	if err := file.Close(); err != nil {
		t.Fatalf("file close: %v", err)
	}
}

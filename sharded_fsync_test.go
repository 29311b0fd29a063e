package extbuf_test

import (
	"path/filepath"
	"testing"
	"time"

	"extbuf"
)

// TestShardedSyncDetachesFsync holds the WAL fsync of one shard inside a
// Sync barrier and checks the split: the shard's worker is free — a
// lookup and a mutation on that very shard complete — while the barrier
// itself, and a checkpoint or Close behind it, wait for the fsync.
func TestShardedSyncDetachesFsync(t *testing.T) {
	const key = 7
	for _, after := range []string{"Flush", "Close"} {
		t.Run(after, func(t *testing.T) {
			s, err := extbuf.NewSharded("buffered", extbuf.Config{
				Backend: "file",
				Path:    filepath.Join(t.TempDir(), "t"),
			}, 2)
			if err != nil {
				t.Fatal(err)
			}
			entered, release := extbuf.HoldShardFsyncForTest(s, key)
			if err := s.Insert(key, 70); err != nil {
				t.Fatal(err)
			}
			syncDone := make(chan error, 1)
			go func() { syncDone <- s.Sync() }()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("Sync never reached the shard's fsync")
			}

			// The worker spilled and moved on: its shard serves reads and
			// writes while the fsync is still in the kernel.
			served := make(chan error, 1)
			go func() {
				if v, ok := s.Lookup(key); !ok || v != 70 {
					t.Errorf("Lookup(%d) = (%d, %v) during the held fsync, want (70, true)", key, v, ok)
				}
				served <- s.Upsert(key, 71)
			}()
			select {
			case err := <-served:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the shard's worker is stalled behind its detached fsync")
			}

			// The barrier is not: neither Sync nor what queues behind it
			// may finish before the fsync does.
			afterDone := make(chan error, 1)
			go func() {
				if after == "Flush" {
					afterDone <- s.Flush()
				} else {
					afterDone <- s.Close()
				}
			}()
			select {
			case err := <-syncDone:
				t.Fatalf("Sync returned (%v) with the fsync still held", err)
			case err := <-afterDone:
				t.Fatalf("%s returned (%v) with the shard's fsync still held", after, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-syncDone; err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := <-afterDone; err != nil {
				t.Fatalf("%s: %v", after, err)
			}
			if after == "Flush" {
				if v, ok := s.Lookup(key); !ok || v != 71 {
					t.Fatalf("Lookup(%d) = (%d, %v) after Flush, want (71, true)", key, v, ok)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

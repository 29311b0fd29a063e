package extbuf_test

import (
	"path/filepath"
	"testing"

	"extbuf"
)

// FuzzTableOps decodes a byte stream into operations over a small-B
// durable table — upserts, fresh-key inserts, deletes, lookups, flush
// barriers and close/reopen transitions — and differentially checks
// every observation against a map reference model. The seed corpus
// lives under testdata/fuzz/FuzzTableOps; CI runs a short -fuzz smoke
// on top of the corpus replay that plain `go test` performs.
func FuzzTableOps(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x11, 0x22, 0x85, 0x46, 0x97})
	f.Add(uint64(42), []byte("insert-delete-reopen"))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		path := filepath.Join(t.TempDir(), "fuzz.tbl")
		cfg := extbuf.Config{
			BlockSize: 8, MemoryWords: 256, ExpectedItems: 128,
			Seed: seed | 1, Backend: "file", Path: path, CacheBlocks: 4,
		}
		tab, err := extbuf.Open("buffered", cfg)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Close the CURRENT table at exit: reopen ops rebind tab, and a
		// plain `defer tab.Close()` would close the stale original and
		// leak the final table's file descriptors across fuzz iterations.
		defer func() { tab.Close() }()
		ref := map[uint64]uint64{}
		checkCopies := func(i int, key uint64) {
			t.Helper()
			if n, want, bad := copiesMismatch(tab, ref, key); bad {
				t.Fatalf("op %d: key %d has %d live copies, reference wants %d", i, key, n, want)
			}
		}
		val := uint64(0)
		for i, b := range ops {
			key := uint64(b >> 3) // 32 keys: constant collisions
			val++
			switch b % 7 {
			case 0, 1: // upsert
				if err := tab.Upsert(key, val); err != nil {
					t.Fatalf("op %d: upsert(%d): %v", i, key, err)
				}
				ref[key] = val
				checkCopies(i, key)
			case 2: // insert honoring the fresh-key contract
				if _, present := ref[key]; present {
					continue
				}
				if err := tab.Insert(key, val); err != nil {
					t.Fatalf("op %d: insert(%d): %v", i, key, err)
				}
				ref[key] = val
				checkCopies(i, key)
			case 3: // delete
				got := tab.Delete(key)
				_, want := ref[key]
				if got != want {
					t.Fatalf("op %d: delete(%d) = %v, reference %v", i, key, got, want)
				}
				delete(ref, key)
				checkCopies(i, key)
			case 4: // flush barrier
				if err := tab.Flush(); err != nil {
					t.Fatalf("op %d: flush: %v", i, err)
				}
			case 5: // close + reopen through the recovery path
				if err := tab.Close(); err != nil {
					t.Fatalf("op %d: close: %v", i, err)
				}
				if tab, err = extbuf.Open("buffered", cfg); err != nil {
					t.Fatalf("op %d: reopen: %v", i, err)
				}
				for k := uint64(0); k < 32; k++ {
					checkCopies(i, k)
				}
			default: // lookup
				v, ok := tab.Lookup(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("op %d: lookup(%d) = (%d,%v), reference (%d,%v)", i, key, v, ok, rv, rok)
				}
			}
		}
		for k, want := range ref {
			if v, ok := tab.Lookup(k); !ok || v != want {
				t.Fatalf("final: key %d = (%d,%v), reference %d", k, v, ok, want)
			}
		}
		if got := tab.Len(); got != len(ref) {
			t.Fatalf("final: Len = %d, reference %d", got, len(ref))
		}
	})
}

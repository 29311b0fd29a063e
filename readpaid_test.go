package extbuf_test

import (
	"path/filepath"
	"testing"

	"extbuf"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// Tests of the read-paid merge rule at the engine surface (the rule
// itself is pinned in internal/core; DESIGN.md §3a).

// absentKeys returns n keys outside the 1<<32 range the tests store.
func absentKeys(seed uint64, n int) []uint64 {
	rng := xrand.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() | 1<<63
	}
	return keys
}

// readPaidEngines opens the engines the rule is served through: a single
// table and a sharded engine, scratch and durable.
func readPaidEngines(t *testing.T, structure string) map[string]extbuf.Engine {
	t.Helper()
	out := map[string]extbuf.Engine{}
	for _, backend := range []string{"mem", "file"} {
		cfg := extbuf.Config{BlockSize: 16, MemoryWords: 512, Beta: 2, ExpectedItems: 4096, Seed: 3, Backend: backend, CacheBlocks: 64}
		if backend == "file" {
			cfg.Path = filepath.Join(t.TempDir(), "single.tbl")
		}
		single, err := extbuf.OpenEngine(structure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if backend == "file" {
			cfg.Path = filepath.Join(t.TempDir(), "shards")
		}
		sharded, err := extbuf.NewSharded(structure, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		out[backend+"/single"], out[backend+"/sharded"] = single, sharded
		t.Cleanup(func() { single.Close(); sharded.Close() })
	}
	return out
}

// TestReadPaidMergeServed: on a served buffered table, absent lookups pay
// one I/O per occupied cascade level only until they have paid for the
// merge; from then on every lookup costs its single Ĥ probe, and the
// table answers exactly as before. Writes never settle anything, and the
// baselines never restructure.
func TestReadPaidMergeServed(t *testing.T) {
	keys := workload.Keys(xrand.New(11), 3000)
	for i := range keys {
		keys[i] &^= 1 << 63
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	absent := absentKeys(12, 4096)
	found := make([]bool, len(absent))
	got := make([]uint64, len(absent))
	for name, eng := range readPaidEngines(t, "buffered") {
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		if ms := extbuf.MergeStatsForTest(eng); ms.ReadPaidMerges != 0 || ms.ReadDebt != 0 || ms.Merges == 0 {
			t.Fatalf("%s: after inserts only: %+v", name, ms)
		}
		// Read-modify-writes walk the cascade too, and buy nothing.
		if err := eng.UpsertBatch(keys[:512], vals[:512]); err != nil {
			t.Fatal(err)
		}
		if err := eng.DeleteBatchInto(absent[:512], found); err != nil {
			t.Fatal(err)
		}
		if ms := extbuf.MergeStatsForTest(eng); ms.ReadPaidMerges != 0 || ms.ReadDebt != 0 {
			t.Fatalf("%s: writes accrued read debt: %+v", name, ms)
		}

		before := eng.Stats().IOs()
		if err := eng.LookupBatchInto(absent[:64], got, found); err != nil {
			t.Fatal(err)
		}
		full := float64(eng.Stats().IOs()-before) / 64
		if ms := extbuf.MergeStatsForTest(eng); full <= 1 || ms.ReadDebt == 0 {
			t.Fatalf("%s: no cascade level occupied (%.2f I/Os per absent lookup, %+v): the shape exercises nothing", name, full, ms)
		}
		for i := 0; extbuf.MergeStatsForTest(eng).ReadDebt > 0; i++ { // every shard with a cascade buys its merge
			if i == 64 {
				t.Fatalf("%s: %d absent lookups bought no merge: %+v", name, 64*len(absent), extbuf.MergeStatsForTest(eng))
			}
			if err := eng.LookupBatchInto(absent, got, found); err != nil {
				t.Fatal(err)
			}
		}
		ms := extbuf.MergeStatsForTest(eng)
		if ms.ReadPaidMerges == 0 {
			t.Fatalf("%s: debt cleared without a read-paid merge: %+v", name, ms)
		}

		before = eng.Stats().IOs()
		if err := eng.LookupBatchInto(absent, got, found); err != nil {
			t.Fatal(err)
		}
		for i, ok := range found {
			if ok {
				t.Fatalf("%s: absent key %d found", name, absent[i])
			}
		}
		// One probe of Ĥ each; a chain past its head block is the
		// 1/2^Ω(b) exception at fill <= 1/2.
		after := float64(eng.Stats().IOs()-before) / float64(len(absent))
		if after > 1.05 {
			t.Fatalf("%s: %.3f I/Os per absent lookup after the merge (%.2f before)", name, after, full)
		}
		gotV, gotOK, err := eng.LookupBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			want := vals[i]
			if !gotOK[i] || gotV[i] != want {
				t.Fatalf("%s: key %d = (%d,%v) after the merge, want %d", name, keys[i], gotV[i], gotOK[i], want)
			}
			if n, _ := extbuf.CopiesForTest(eng, keys[i]); n != 1 {
				t.Fatalf("%s: key %d has %d copies after the merge", name, keys[i], n)
			}
		}
		if eng.Len() != len(keys) {
			t.Fatalf("%s: Len %d after the merge, want %d", name, eng.Len(), len(keys))
		}
		t.Logf("%s: %.2f -> %.3f I/Os per absent lookup, %+v", name, full, after, extbuf.MergeStatsForTest(eng))
	}
	for name, eng := range readPaidEngines(t, "logmethod") {
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := eng.LookupBatchInto(absent, got, found); err != nil {
			t.Fatal(err)
		}
		if ms := extbuf.MergeStatsForTest(eng); ms != (extbuf.MergeStats{}) {
			t.Fatalf("%s: a baseline reports %+v", name, ms)
		}
	}
}

// TestScanAcrossReadPaidMerge: a full Scan with no writers, interrupted
// at any page by lookups that buy a merge, still returns every key at
// least once. Cascade buckets come before Ĥ's in scan order, so a key the
// merge moves is either still ahead of the cursor in Ĥ or was already
// returned from the cascade: a move can duplicate, never hide.
func TestScanAcrossReadPaidMerge(t *testing.T) {
	const n, page = 3000, 48
	keys := workload.Keys(xrand.New(21), n)
	for i := range keys {
		keys[i] &^= 1 << 63
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	want := make(map[uint64]uint64, n)
	for i, k := range keys {
		want[k] = vals[i]
	}
	absent := absentKeys(22, 4096)
	found := make([]bool, len(absent))
	got := make([]uint64, len(absent))
	open := func() extbuf.Engine {
		eng, err := extbuf.OpenEngine("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 512, Beta: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// scan pages through eng, running interrupt before page number at.
	scan := func(eng extbuf.Engine, at int, interrupt func()) (seen map[uint64]int, pages int) {
		seen = make(map[uint64]int, n)
		for cursor := uint64(0); cursor != extbuf.ScanDone; pages++ {
			if pages == at {
				interrupt()
			}
			ks, vs, next, err := eng.Scan(cursor, page)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range ks {
				if want[k] != vs[i] {
					t.Fatalf("scan returned (%d,%d), stored value %d", k, vs[i], want[k])
				}
				seen[k]++
			}
			cursor = next
		}
		return seen, pages
	}
	eng := open()
	_, pages := scan(eng, -1, nil)
	eng.Close()
	dups := 0
	for at := 0; at < pages; at += max(1, pages/16) {
		eng := open()
		seen, _ := scan(eng, at, func() {
			for extbuf.MergeStatsForTest(eng).ReadPaidMerges == 0 {
				if err := eng.LookupBatchInto(absent, got, found); err != nil {
					t.Fatal(err)
				}
			}
		})
		if ms := extbuf.MergeStatsForTest(eng); ms.ReadPaidMerges != 1 {
			t.Fatalf("interrupted before page %d: %+v", at, ms)
		}
		for _, k := range keys {
			if seen[k] == 0 {
				t.Fatalf("interrupted before page %d of %d: key %d never returned", at, pages, k)
			}
			dups += seen[k] - 1
		}
		eng.Close()
	}
	t.Logf("%d pages; %d duplicate returns across the interrupted scans", pages, dups)
}

// TestCheckpointExpiryRoundTrip: the expiry index a checkpoint encodes
// straight from the index comes back, deadline for deadline, through the
// superblock's pair-map decoder on reopen.
func TestCheckpointExpiryRoundTrip(t *testing.T) {
	clk := &testClock{}
	clk.now.Store(1)
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, Seed: 7,
		Backend: "file", Path: filepath.Join(t.TempDir(), "exp.tbl"),
	}.WithClock(clk.fn())
	const n = 1000
	keys, vals, deadlines := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i], deadlines[i] = uint64(i)*7919+1, uint64(i), 1000+uint64(i)
	}
	for _, structure := range []string{"buffered", "knuth"} {
		t.Run(structure, func(t *testing.T) {
			cfg := cfg
			cfg.Path += "." + structure
			eng, err := extbuf.OpenEngine(structure, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.UpsertTTLBatchShip(keys, vals, deadlines); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil { // the checkpoint
				t.Fatal(err)
			}
			if eng, err = extbuf.OpenEngine(structure, cfg); err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if st := eng.ExpiryStats(); st.Tracked != n {
				t.Fatalf("Tracked after reopen = %d, want %d", st.Tracked, n)
			}
			for i, k := range keys {
				clk.now.Store(deadlines[i] - 1)
				if v, ok := eng.Lookup(k); !ok || v != vals[i] {
					t.Fatalf("key %d one ms before its deadline: (%d,%v)", k, v, ok)
				}
				clk.now.Store(deadlines[i])
				if _, ok := eng.Lookup(k); ok {
					t.Fatalf("key %d visible at its deadline %d", k, deadlines[i])
				}
			}
		})
	}
}

package extbuf_test

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"extbuf"
	"extbuf/internal/xrand"
)

// testClock is a manually advanced TTL clock shared with an engine via
// Config.WithClock.
type testClock struct{ now atomic.Uint64 }

func (c *testClock) fn() func() uint64 { return c.now.Load }

// openEngines builds a one-shard engine of every structure on the
// in-memory backend, all sharing clk.
func openEngines(t *testing.T, clk *testClock) map[string]extbuf.Engine {
	t.Helper()
	out := map[string]extbuf.Engine{}
	for _, name := range extbuf.Structures() {
		cfg := extbuf.Config{BlockSize: 16, MemoryWords: 512, ExpectedItems: 4096, Seed: 7}.
			WithClock(clk.fn())
		if name == "extendible" {
			cfg.MemoryWords = 1 << 16
		}
		eng, err := extbuf.NewSharded(name, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = eng
	}
	return out
}

func TestTTLLazyExpiryAndSweep(t *testing.T) {
	clk := &testClock{}
	clk.now.Store(1000)
	for name, eng := range openEngines(t, clk) {
		clk.now.Store(1000)
		keys := []uint64{1, 2, 3, 4, 5}
		vals := []uint64{10, 20, 30, 40, 50}
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatalf("%s: insert: %v", name, err)
		}
		// Deadline in the future: still visible.
		found := make([]bool, 3)
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{1, 2, 99}, []uint64{2000, 3000, 2000}, nil, found); err != nil {
			t.Fatalf("%s: expire: %v", name, err)
		}
		if !found[0] || !found[1] || found[2] {
			t.Fatalf("%s: expire found = %v, want [true true false]", name, found)
		}
		if v, ok := eng.Lookup(1); !ok || v != 10 {
			t.Fatalf("%s: key 1 invisible before its deadline (ok=%v v=%d)", name, ok, v)
		}
		// Advance past key 1's deadline only.
		clk.now.Store(2000)
		if _, ok := eng.Lookup(1); ok {
			t.Fatalf("%s: key 1 visible at its deadline", name)
		}
		if v, ok := eng.Lookup(2); !ok || v != 20 {
			t.Fatalf("%s: key 2 expired early (ok=%v v=%d)", name, ok, v)
		}
		// Batch lookups filter identically.
		bv, bf, err := eng.LookupBatch([]uint64{1, 2, 3})
		if err != nil || bf[0] || !bf[1] || !bf[2] || bv[1] != 20 {
			t.Fatalf("%s: batch lookup = %v %v %v", name, bv, bf, err)
		}
		// Delete on an expired key reports a miss (it is already gone
		// as far as any reader can tell).
		if eng.Delete(1) {
			t.Fatalf("%s: delete of expired key reported a hit", name)
		}
		st := eng.ExpiryStats()
		if st.LazyHits == 0 {
			t.Fatalf("%s: no lazy hits recorded: %+v", name, st)
		}
		// Sweep the remainder: key 2 expires at 3000.
		clk.now.Store(3000)
		n, _, err := eng.SweepExpired(128)
		if err != nil || n != 1 {
			t.Fatalf("%s: sweep = %d, %v; want 1 swept", name, n, err)
		}
		if _, ok := eng.Lookup(2); ok {
			t.Fatalf("%s: key 2 visible after sweep", name)
		}
		st = eng.ExpiryStats()
		if st.Swept != 1 || st.Tracked != 0 {
			t.Fatalf("%s: stats after sweep = %+v", name, st)
		}
		if n, _, err := eng.SweepExpired(128); err != nil || n != 0 {
			t.Fatalf("%s: second sweep = %d, %v; want 0", name, n, err)
		}
		eng.Close()
	}
}

func TestTTLClearedByWrites(t *testing.T) {
	clk := &testClock{}
	for name, eng := range openEngines(t, clk) {
		clk.now.Store(100)
		found := make([]bool, 1)
		swapped := make([]bool, 1)
		if err := eng.Insert(7, 70); err != nil {
			t.Fatal(err)
		}
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{7}, []uint64{200}, nil, found); err != nil || !found[0] {
			t.Fatalf("%s: expire: %v %v", name, err, found)
		}
		// A plain upsert clears the deadline.
		if err := eng.Upsert(7, 71); err != nil {
			t.Fatal(err)
		}
		clk.now.Store(5000)
		if v, ok := eng.Lookup(7); !ok || v != 71 {
			t.Fatalf("%s: upsert did not clear TTL (ok=%v v=%d)", name, ok, v)
		}
		// So does a successful CAS.
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{7}, []uint64{6000}, nil, found); err != nil || !found[0] {
			t.Fatalf("%s: re-expire: %v %v", name, err, found)
		}
		if _, err := eng.CompareSwapBatchShip([]uint64{7}, []uint64{71}, []uint64{72}, swapped); err != nil || !swapped[0] {
			t.Fatalf("%s: cas: %v %v", name, err, swapped)
		}
		clk.now.Store(10000)
		if v, ok := eng.Lookup(7); !ok || v != 72 {
			t.Fatalf("%s: cas did not clear TTL (ok=%v v=%d)", name, ok, v)
		}
		if st := eng.ExpiryStats(); st.Tracked != 0 {
			t.Fatalf("%s: %d deadlines tracked after clears", name, st.Tracked)
		}
		eng.Close()
	}
}

func TestCompareSwap(t *testing.T) {
	clk := &testClock{}
	for name, eng := range openEngines(t, clk) {
		clk.now.Store(100)
		if err := eng.InsertBatch([]uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil {
			t.Fatal(err)
		}
		keys := []uint64{1, 2, 3, 4}
		olds := []uint64{10, 99, 30, 40}
		news := []uint64{11, 21, 31, 41}
		swapped := make([]bool, 4)
		if _, err := eng.CompareSwapBatchShip(keys, olds, news, swapped); err != nil {
			t.Fatalf("%s: cas: %v", name, err)
		}
		// 1: matches; 2: wrong old; 3: matches; 4: absent.
		want := []bool{true, false, true, false}
		for i := range want {
			if swapped[i] != want[i] {
				t.Fatalf("%s: swapped = %v, want %v", name, swapped, want)
			}
		}
		if v, _ := eng.Lookup(1); v != 11 {
			t.Fatalf("%s: key 1 = %d after cas", name, v)
		}
		if v, _ := eng.Lookup(2); v != 20 {
			t.Fatalf("%s: key 2 = %d, want untouched 20", name, v)
		}
		// An expired key never swaps, even with a matching old value.
		found := make([]bool, 1)
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{3}, []uint64{150}, nil, found); err != nil || !found[0] {
			t.Fatal(err, found)
		}
		clk.now.Store(200)
		if _, err := eng.CompareSwapBatchShip([]uint64{3}, []uint64{31}, []uint64{32}, swapped[:1]); err != nil {
			t.Fatal(err)
		}
		if swapped[0] {
			t.Fatalf("%s: expired key swapped", name)
		}
		eng.Close()
	}
}

func TestUpsertTTL(t *testing.T) {
	clk := &testClock{}
	for name, eng := range openEngines(t, clk) {
		clk.now.Store(100)
		if _, err := eng.UpsertTTLBatchShip([]uint64{5, 6}, []uint64{50, 60}, []uint64{300, 400}); err != nil {
			t.Fatalf("%s: upsertTTL: %v", name, err)
		}
		if v, ok := eng.Lookup(5); !ok || v != 50 {
			t.Fatalf("%s: key 5 not written (ok=%v v=%d)", name, ok, v)
		}
		if st := eng.ExpiryStats(); st.Tracked != 2 {
			t.Fatalf("%s: Tracked = %d, want 2", name, st.Tracked)
		}
		clk.now.Store(300)
		if _, ok := eng.Lookup(5); ok {
			t.Fatalf("%s: key 5 visible past deadline", name)
		}
		if v, ok := eng.Lookup(6); !ok || v != 60 {
			t.Fatalf("%s: key 6 expired early", name)
		}
		eng.Close()
	}
}

func TestScanAllStructures(t *testing.T) {
	clk := &testClock{}
	for name, eng := range openEngines(t, clk) {
		clk.now.Store(100)
		rng := xrand.New(13)
		want := map[uint64]uint64{}
		keys := make([]uint64, 0, 3000)
		vals := make([]uint64, 0, 3000)
		for len(want) < 3000 {
			k := rng.Uint64()
			if _, dup := want[k]; dup {
				continue
			}
			want[k] = k * 3
			keys = append(keys, k)
			vals = append(vals, k*3)
		}
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatalf("%s: insert: %v", name, err)
		}
		// Overwrite a slice of keys so structures with stale copies
		// (the log method's levels) must suppress them.
		for i := 0; i < 500; i++ {
			want[keys[i]] = keys[i] * 5
			if err := eng.Upsert(keys[i], keys[i]*5); err != nil {
				t.Fatal(err)
			}
		}
		// Expire a disjoint slice; expired entries must not appear.
		found := make([]bool, 250)
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, keys[500:750], repeat(150, 250), nil, found); err != nil {
			t.Fatalf("%s: expire: %v", name, err)
		}
		clk.now.Store(200)
		for _, k := range keys[500:750] {
			delete(want, k)
		}
		got := map[uint64]uint64{}
		pages := 0
		for cursor := uint64(0); ; {
			ks, vs, next, err := eng.Scan(cursor, 256)
			if err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			pages++
			for i, k := range ks {
				if prev, dup := got[k]; dup {
					t.Fatalf("%s: key %d scanned twice (vals %d, %d)", name, k, prev, vs[i])
				}
				got[k] = vs[i]
			}
			if next == extbuf.ScanDone {
				break
			}
			cursor = next
		}
		if pages < 2 {
			t.Fatalf("%s: scan returned everything in %d page(s); paging untested", name, pages)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: scanned %d entries, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: key %d = %d, want %d", name, k, got[k], v)
			}
		}
		eng.Close()
	}
}

// repeat returns a slice of n copies of v.
func repeat(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestShardedTTLCASScan drives the same surface through the shard
// pipeline, where every operation crosses worker goroutines.
func TestShardedTTLCASScan(t *testing.T) {
	clk := &testClock{}
	clk.now.Store(100)
	cfg := extbuf.Config{BlockSize: 16, MemoryWords: 512, ExpectedItems: 4096, Seed: 7}.
		WithClock(clk.fn())
	s, err := extbuf.NewSharded("buffered", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 2000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	rng := xrand.New(17)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = uint64(i)
	}
	if err := s.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}

	// Expire half with deadline 200, check found flags.
	half := keys[:n/2]
	found := make([]bool, n/2)
	if _, err := extbuf.BatchForTest(s, extbuf.BatchExpire, false, half, repeat(200, n/2), nil, found); err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("expire miss at %d", i)
		}
	}
	if st := s.ExpiryStats(); st.Tracked != int64(n/2) {
		t.Fatalf("Tracked = %d, want %d", st.Tracked, n/2)
	}

	// CAS across shards: every even index swaps, odd offers a wrong old.
	olds := make([]uint64, n)
	news := make([]uint64, n)
	swapped := make([]bool, n)
	for i := range keys {
		olds[i] = uint64(i)
		if i%2 == 1 {
			olds[i] = ^uint64(0)
		}
		news[i] = uint64(i) + 1_000_000
	}
	if _, err := s.CompareSwapBatchShip(keys, olds, news, swapped); err != nil {
		t.Fatal(err)
	}
	for i := range swapped {
		if swapped[i] != (i%2 == 0) {
			t.Fatalf("swapped[%d] = %v", i, swapped[i])
		}
	}

	// Past the deadline: un-swapped first-half keys (odd indices, TTL
	// intact) vanish; swapped ones survive (CAS cleared their TTL).
	clk.now.Store(200)
	for i := 0; i < n/2; i++ {
		_, ok := s.Lookup(keys[i])
		if wantOK := i%2 == 0; ok != wantOK {
			t.Fatalf("key %d visible=%v, want %v", i, ok, wantOK)
		}
	}

	// Sweep drains the expired residue and Scan sees exactly the rest.
	for {
		swept, _, err := s.SweepExpired(64)
		if err != nil {
			t.Fatal(err)
		}
		if swept == 0 {
			break
		}
	}
	live := map[uint64]uint64{}
	for i, k := range keys {
		switch {
		case i%2 == 0:
			live[k] = uint64(i) + 1_000_000
		case i >= n/2:
			live[k] = uint64(i)
		}
	}
	got := map[uint64]uint64{}
	for cursor := uint64(0); ; {
		ks, vs, next, err := s.Scan(cursor, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			if _, dup := got[k]; dup {
				t.Fatalf("key %d scanned twice", k)
			}
			got[k] = vs[i]
		}
		if next == extbuf.ScanDone {
			break
		}
		cursor = next
	}
	if len(got) != len(live) {
		t.Fatalf("scanned %d, want %d", len(got), len(live))
	}
	for k, v := range live {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	if st := s.ExpiryStats(); st.Tracked != 0 || st.Swept != int64(n/4) {
		t.Fatalf("final stats = %+v, want Tracked 0, Swept %d", st, n/4)
	}
}

// TestTTLDurability checkpoints deadlines (superblock v4) and replays
// expire records from the WAL tail across a reopen.
func TestTTLDurability(t *testing.T) {
	clk := &testClock{}
	clk.now.Store(100)
	path := filepath.Join(t.TempDir(), "ttl.tab")
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 1024, Seed: 7,
		Backend: "file", Path: path,
	}.WithClock(clk.fn())

	eng, err := extbuf.NewSharded("buffered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch([]uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	found := make([]bool, 2)
	if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{1, 2}, []uint64{500, 900}, nil, found); err != nil {
		t.Fatal(err)
	}
	// Checkpoint now holds keys 1-3 and two deadlines.
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint WAL tail: a new deadline for 3, an overwrite of 2
	// (clears its deadline), and a fresh key.
	if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{3}, []uint64{700}, nil, found[:1]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Upsert(2, 21); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.UpsertTTLBatchShip([]uint64{4}, []uint64{40}, []uint64{600}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = extbuf.NewSharded("buffered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.ExpiryStats(); st.Tracked != 3 { // keys 1, 3, 4
		t.Fatalf("Tracked after reopen = %d, want 3", st.Tracked)
	}
	// Advance through the deadlines and watch them bite in order.
	clk.now.Store(500)
	if _, ok := eng.Lookup(1); ok {
		t.Fatal("key 1 visible past checkpointed deadline")
	}
	clk.now.Store(600)
	if _, ok := eng.Lookup(4); ok {
		t.Fatal("key 4 visible past replayed upsert-TTL deadline")
	}
	clk.now.Store(700)
	if _, ok := eng.Lookup(3); ok {
		t.Fatal("key 3 visible past replayed deadline")
	}
	clk.now.Store(5000)
	if v, ok := eng.Lookup(2); !ok || v != 21 {
		t.Fatalf("key 2 = (%d,%v), want persistent 21 (upsert cleared TTL)", v, ok)
	}
}

// TestTTLClockCrossesEarliestDeadline: an engine reads the clock once per
// call and skips the per-key deadline probe while the earliest deadline
// is ahead of it. The stream below moves the clock across the earliest
// deadline between calls, installs a deadline already in the past in the
// middle of a call, and leaves an abandoned early deadline behind — the
// answers must be those of probing every key against the clock.
func TestTTLClockCrossesEarliestDeadline(t *testing.T) {
	clk := &testClock{}
	cfg := extbuf.Config{BlockSize: 16, MemoryWords: 512, ExpectedItems: 4096, Seed: 7}.
		WithClock(clk.fn())
	single, err := extbuf.NewSharded("buffered", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := extbuf.NewSharded("buffered", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]extbuf.Engine{"shards=1": single, "shards=4": sharded} {
		clk.now.Store(1000)
		const n = 64
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = uint64(i+1), uint64(i+1)*10
		}
		if err := eng.InsertBatch(keys, vals); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		visible := func(when string, want func(key uint64) bool) {
			t.Helper()
			_, found, err := eng.LookupBatch(keys)
			if err != nil {
				t.Fatalf("%s %s: %v", name, when, err)
			}
			for i, k := range keys {
				if found[i] != want(k) {
					t.Fatalf("%s %s: key %d visible = %v, want %v", name, when, k, found[i], want(k))
				}
				if _, ok := eng.Lookup(k); ok != want(k) {
					t.Fatalf("%s %s: single lookup of key %d = %v, want %v", name, when, k, ok, want(k))
				}
			}
		}
		// Keys 1..8 expire at 2000, 9..16 at 3000; key 17 is set to 1500
		// and then moved out to 5000, abandoning the earlier entry.
		found := make([]bool, n)
		dl := append(repeat(2000, 8), repeat(3000, 8)...)
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, keys[:16], dl, nil, found[:16]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range []uint64{1500, 5000} {
			if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, keys[16:17], []uint64{d}, nil, found[:1]); err != nil || !found[0] {
				t.Fatalf("%s: expire key 17 at %d: %v %v", name, d, found[0], err)
			}
		}
		visible("before any deadline", func(uint64) bool { return true })
		clk.now.Store(1999)
		visible("past the abandoned entry only", func(uint64) bool { return true })
		clk.now.Store(2000)
		visible("at the earliest deadline", func(k uint64) bool { return k > 8 })
		// Deletes and CAS judge the same way, batch and single.
		if eng.Delete(1) {
			t.Fatalf("%s: delete of an expired key reported a hit", name)
		}
		if err := eng.DeleteBatchInto(keys[1:3], found[:2]); err != nil || found[0] || found[1] {
			t.Fatalf("%s: batch delete of expired keys = %v, %v", name, found[:2], err)
		}
		if _, err := eng.CompareSwapBatchShip([]uint64{4, 9}, []uint64{40, 90}, []uint64{41, 91}, found[:2]); err != nil || found[0] || !found[1] {
			t.Fatalf("%s: cas on (expired, live) = %v, %v; want [false true]", name, found[:2], err)
		}
		clk.now.Store(3000)
		// Key 9's swap cleared its deadline (a plain write makes a key persistent).
		visible("at the second deadline", func(k uint64) bool { return k == 9 || k > 16 })
		// A deadline already due, installed mid-call: the second position
		// of the same call must see key 20 gone.
		if _, err := extbuf.BatchForTest(eng, extbuf.BatchExpire, false, []uint64{20, 20}, []uint64{2500, 9000}, nil, found[:2]); err != nil || !found[0] || found[1] {
			t.Fatalf("%s: expire (past, then again) = %v, %v; want [true false]", name, found[:2], err)
		}
		if n, _, err := eng.SweepExpired(1 << 20); err != nil || n != 13 {
			// Keys 4..8 and 10..16 (1..3 were deleted, 9 was swapped) and 20.
			t.Fatalf("%s: swept %d keys, %v; want 13", name, n, err)
		}
		if got, want := eng.Len(), n-3-13; got != want {
			t.Fatalf("%s: Len = %d after the sweep, want %d", name, got, want)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

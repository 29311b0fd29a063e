package extbuf_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"extbuf"
	"extbuf/internal/iomodel"
	"extbuf/internal/xrand"
)

// The crash-injection matrix exercises every fault point the durable
// backend exposes: for k = 1..N the simulated process dies at the k-th
// write syscall (optionally tearing that write), the table is reopened
// without faults, and recovery must restore a state equal to the
// workload after some prefix of the successfully applied operations —
// with everything acknowledged by the last successful Flush at the base
// of that prefix. That single invariant captures both halves of the
// contract: acknowledged operations survive (the prefix can never fall
// below the last Flush, whose checkpoint or synced WAL is durable), and
// no operation half-applies (a state between two operations matches no
// prefix and fails the search).

// crashKeySpace is the small key universe the scripted workload mutates.
const crashKeySpace = 48

// The read-paid row of the matrix (buffered, Beta 2) first stores
// crashFillKeys keys from crashFillBase up, one upsert each: with the
// merge window (m/2) wider than H_0 (m/4) they occupy a cascade level,
// so the lookup burst every workload issues mid-epoch buys a merge there
// and the crash point walks that merge's copy-on-write block writes.
const (
	crashFillBase = 1 << 20
	crashFillKeys = 180
	crashLookups  = 160 // absent-key lookups issued at operation crashLookupAt
	crashLookupAt = 90
)

// crashWorkloadResult captures a faulted run: the reference state after
// each applied operation since the last acknowledged Flush (index 0 is
// the acknowledged state itself), and whether the fault tripped.
type crashWorkloadResult struct {
	snapshots []map[uint64]uint64
	crashed   bool
	readPaid  int64 // merges the lookup burst had bought when it ended
}

func copyState(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// crashFarDeadline is a TTL deadline far past any test clock: expire
// records with it change no visible state, so they exercise only the
// OpExpire WAL framing and replay. crashPastDeadline (1ms after the
// epoch) is behind any real clock, so installing it hides the key from
// reads — observationally a delete.
const (
	crashFarDeadline  = ^uint64(0) >> 1
	crashPastDeadline = uint64(1)
)

// runCrashWorkload drives a deterministic scripted workload (upserts,
// deletes, TTL expires, atomic upsert+TTL, periodic Flush barriers)
// against a durable table with the given fault plan. Any error is
// interpreted as the injected crash; the table is still closed to
// release file handles (post-crash writes all fail, so closing cannot
// disturb the on-disk state).
//
// TTL operations extend the prefix invariant to the expiry sidecar:
// an expire op appends one wal.OpExpire record, so the crash point can
// fall between a key's value write and its deadline write. UpsertTTL
// (one upsert record then one expire record) therefore contributes TWO
// snapshots — the value-visible intermediate state is a legal recovery
// prefix.
//
// fill is the number of filler keys stored first (see crashFillKeys).
// Every workload issues a burst of absent-key lookups in the middle of
// its second epoch; lookups log nothing and change no snapshot, but on a
// buffered table with an occupied cascade level they buy a merge, whose
// block writes then sit between two checkpoints like any other.
func runCrashWorkload(t *testing.T, structure string, cfg extbuf.Config, fill int) crashWorkloadResult {
	t.Helper()
	res := crashWorkloadResult{}
	cur := map[uint64]uint64{}
	res.snapshots = []map[uint64]uint64{copyState(cur)} // acknowledged: empty
	tab, err := extbuf.Open(structure, cfg)
	if err != nil {
		res.crashed = true
		return res
	}
	defer tab.Close() // release handles; harmless post-crash (all writes fail)
	for key := uint64(crashFillBase); key < crashFillBase+uint64(fill); key++ {
		if err := tab.Upsert(key, key<<8); err != nil {
			res.crashed = true
			return res
		}
		cur[key] = key << 8
		res.snapshots = append(res.snapshots, copyState(cur))
	}
	rng := xrand.New(9)
	found := make([]bool, 1)
	for i := 0; i < 240; i++ {
		if i == crashLookupAt {
			for j := uint64(0); j < crashLookups; j++ {
				if _, ok := tab.Lookup(1<<40 | j); ok {
					t.Fatalf("absent key %d found", 1<<40|j)
				}
			}
			res.readPaid = extbuf.MergeStatsForTest(tab).ReadPaidMerges
		}
		if i > 0 && i%60 == 0 {
			if err := tab.Flush(); err != nil {
				res.crashed = true
				return res
			}
			res.snapshots = []map[uint64]uint64{copyState(cur)} // new acknowledged base
		}
		key := rng.Uint64() % crashKeySpace
		switch r := rng.Uint64() % 10; {
		case r < 5:
			val := uint64(i)<<16 | key
			if err := tab.Upsert(key, val); err != nil {
				res.crashed = true
				return res
			}
			cur[key] = val
		case r < 6:
			// Compare-and-swap, against the stored value on even rounds:
			// a swap logs one upsert record, a refusal none (the record
			// step logs after the swap decision), so replay never swaps
			// what the table refused.
			val := uint64(i)<<16 | key | 1<<49
			old, present := cur[key]
			old += uint64(i % 2)
			if _, err := extbuf.BatchForTest(tab, extbuf.BatchCompareSwap, false, []uint64{key}, []uint64{old}, []uint64{val}, found); err != nil {
				res.crashed = true
				return res
			}
			if want := present && i%2 == 0; found[0] != want {
				t.Fatalf("op %d: cas(%d) swapped = %v, want %v", i, key, found[0], want)
			}
			if found[0] {
				cur[key] = val
			}
		case r < 8:
			got := tab.Delete(key)
			_, present := cur[key]
			if !got && present {
				// A present key "missing": its record was refused — the
				// crash point has been reached.
				res.crashed = true
				return res
			}
			delete(cur, key)
		case r == 8:
			// Expire: even rounds install a far deadline (pure OpExpire
			// framing, no visible change), odd rounds a past one (the
			// key disappears from reads — a delete to the model).
			deadline := crashFarDeadline
			if i%2 == 1 {
				deadline = crashPastDeadline
			}
			if _, err := extbuf.BatchForTest(tab, extbuf.BatchExpire, false, []uint64{key}, []uint64{deadline}, nil, found); err != nil {
				res.crashed = true
				return res
			}
			_, present := cur[key]
			if !found[0] && present {
				res.crashed = true
				return res
			}
			if found[0] && deadline == crashPastDeadline {
				delete(cur, key)
			}
		default:
			// UpsertTTL writes an upsert record then an expire record;
			// snapshot both states so a crash between the two records
			// still lands on a legal prefix. Odd rounds use a past
			// deadline, making the intermediate state (value visible,
			// deadline not yet durable) genuinely distinct.
			val := uint64(i)<<16 | key | 1<<48
			deadline := crashFarDeadline
			if i%2 == 1 {
				deadline = crashPastDeadline
			}
			if _, err := extbuf.BatchForTest(tab, extbuf.BatchUpsertTTL, false, []uint64{key}, []uint64{val}, []uint64{deadline}, nil); err != nil {
				res.crashed = true
				return res
			}
			cur[key] = val
			res.snapshots = append(res.snapshots, copyState(cur))
			if deadline == crashPastDeadline {
				delete(cur, key)
			}
		}
		res.snapshots = append(res.snapshots, copyState(cur))
	}
	if err := tab.Close(); err != nil {
		res.crashed = true
	}
	return res
}

// verifyRecovered reopens the table fault-free and checks its state
// equals some snapshot (searching newest first), failing with the seed
// of divergence otherwise.
func verifyRecovered(t *testing.T, structure string, cfg extbuf.Config, label string, snapshots []map[uint64]uint64) {
	t.Helper()
	cfg.Crash = nil
	tab, err := extbuf.Open(structure, cfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	defer tab.Close()
	state := map[uint64]uint64{}
	keys := make([]uint64, 0, crashKeySpace+crashFillKeys)
	for key := uint64(0); key < crashKeySpace; key++ {
		keys = append(keys, key)
	}
	for key := uint64(crashFillBase); key < crashFillBase+crashFillKeys; key++ {
		keys = append(keys, key)
	}
	for _, key := range keys {
		if v, ok := tab.Lookup(key); ok {
			state[key] = v
		}
		// WAL replay (inserts applied as upserts) must leave at most one
		// live copy of a key: first-hit Delete sweeps up no second one.
		if n, _ := extbuf.CopiesForTest(tab, key); n > 1 {
			t.Fatalf("%s: key %d recovered with %d live copies", label, key, n)
		}
	}
	for j := len(snapshots) - 1; j >= 0; j-- {
		snap := snapshots[j]
		if len(snap) != len(state) {
			continue
		}
		match := true
		for k, v := range snap {
			if sv, ok := state[k]; !ok || sv != v {
				match = false
				break
			}
		}
		if match {
			return
		}
	}
	t.Fatalf("%s: recovered state matches no operation prefix:\n state: %v\n acked: %v\n final: %v",
		label, state, snapshots[0], snapshots[len(snapshots)-1])
}

// TestCrashMatrix walks the crash point across every write syscall of
// the scripted workload for every structure, with and without torn
// writes, until a plan survives the whole run (the crash point lies
// beyond the workload's total writes). The "buffered-readpaid" rows run
// the buffered table shaped so that the workload's lookup burst buys a
// merge mid-epoch (see crashFillKeys).
func TestCrashMatrix(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	type row struct {
		name, structure string
		beta, fill      int
	}
	var rows []row
	for _, structure := range extbuf.Structures() {
		rows = append(rows, row{name: structure, structure: structure})
	}
	rows = append(rows, row{name: "buffered-readpaid", structure: "buffered", beta: 2, fill: crashFillKeys})
	for _, r := range rows {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", r.name, torn), func(t *testing.T) {
				completed := false
				for k := int64(1); k < 4000; k += stride {
					cfg := extbuf.Config{
						BlockSize: 16, MemoryWords: 512, ExpectedItems: 512, Seed: 5, Beta: r.beta,
						Backend: "file", Path: filepath.Join(t.TempDir(), "crash.tbl"),
						CacheBlocks: 4, // small cache: evictions exercise copy-on-write mid-epoch
						Crash:       &extbuf.CrashPlan{FailAfterWrites: k, TornWrite: torn, Seed: 77},
					}
					if r.structure == "extendible" {
						cfg.MemoryWords = 1 << 16
					}
					res := runCrashWorkload(t, r.structure, cfg, r.fill)
					verifyRecovered(t, r.structure, cfg,
						fmt.Sprintf("%s torn=%v k=%d", r.name, torn, k), res.snapshots)
					if !res.crashed {
						if r.fill > 0 && res.readPaid == 0 {
							t.Fatal("the lookup burst bought no merge: the read-paid row exercised nothing")
						}
						completed = true
						break
					}
				}
				if !completed {
					t.Fatal("crash matrix never ran past the workload's total writes")
				}
			})
		}
	}
}

// TestDeleteAfterLogFailureMisses: once a durable table's WAL has failed,
// Delete of a key that is still present reports a miss, on a table Open
// returned and on a one-shard engine alike: the key is gone from the
// table, but no record says so. runCrashWorkload recognises its crash
// point by this miss.
func TestDeleteAfterLogFailureMisses(t *testing.T) {
	for name, open := range map[string]func(extbuf.Config) (extbuf.Table, error){
		"Open":       func(cfg extbuf.Config) (extbuf.Table, error) { return extbuf.Open("buffered", cfg) },
		"NewSharded": func(cfg extbuf.Config) (extbuf.Table, error) { return extbuf.NewSharded("buffered", cfg, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			// Walk the crash point until the Upsert gets in and the Sync
			// after it fails.
			for k := int64(1); k < 64; k++ {
				tab, err := open(extbuf.Config{
					BlockSize: 16, MemoryWords: 512, Seed: 5,
					Backend: "file", Path: filepath.Join(t.TempDir(), "del.tbl"),
					Crash: &extbuf.CrashPlan{FailAfterWrites: k},
				})
				if err != nil {
					continue
				}
				if tab.Upsert(7, 70) != nil || tab.Sync() == nil {
					tab.Close()
					continue
				}
				if v, ok := tab.Lookup(7); !ok || v != 70 {
					t.Fatalf("k=%d: key 7 = (%d,%v) after the failed Sync, want 70", k, v, ok)
				}
				if tab.Delete(7) {
					t.Fatalf("k=%d: Delete after a failed Sync reported a hit that no log records", k)
				}
				tab.Close()
				return
			}
			t.Fatal("no crash point let the Upsert in and failed the Sync")
		})
	}
}

// TestCrashFailedSync: failing fsyncs must deny every acknowledgement
// (Flush and Close return the injected failure) while recovery still
// lands on a consistent operation prefix.
func TestCrashFailedSync(t *testing.T) {
	cfg := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 512, Seed: 5,
		Backend: "file", Path: filepath.Join(t.TempDir(), "sync.tbl"), CacheBlocks: 4,
		Crash: &extbuf.CrashPlan{FailSync: true},
	}
	tab, err := extbuf.Open("knuth", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := map[uint64]uint64{}
	snapshots := []map[uint64]uint64{copyState(cur)}
	for i := 0; i < 200; i++ {
		key := uint64(i) % crashKeySpace
		val := uint64(i + 1000)
		if err := tab.Upsert(key, val); err != nil {
			t.Fatalf("upsert %d: %v", i, err)
		}
		cur[key] = val
		snapshots = append(snapshots, copyState(cur))
		if i%50 == 49 {
			if err := tab.Flush(); !errors.Is(err, iomodel.ErrInjectedSyncFailure) {
				t.Fatalf("flush with failing fsync: err = %v, want ErrInjectedSyncFailure", err)
			}
		}
	}
	if err := tab.Close(); !errors.Is(err, iomodel.ErrInjectedSyncFailure) {
		t.Fatalf("close with failing fsync: err = %v, want ErrInjectedSyncFailure", err)
	}
	verifyRecovered(t, "knuth", cfg, "failed-sync", snapshots)
}

// shardedCrashRun is one run of the sharded crash workload: per key the
// acknowledged value (post last successful Flush) and every value
// submitted since, and whether the crash point was reached.
type shardedCrashRun struct {
	acked      map[uint64]uint64
	candidates map[uint64]map[uint64]bool
	crashed    bool
}

// runShardedCrashWorkload drives the sharded crash workload: six rounds
// of four batches of 16 upserts, every batch started before the first is
// waited for, with a Flush after every second round. Before the first
// batch it hands the engine to observe (nil: nothing to look at), and
// after the first Flush it calls flushed.
func runShardedCrashWorkload(t *testing.T, cfg extbuf.Config, observe func(*extbuf.Sharded), flushed func()) shardedCrashRun {
	t.Helper()
	s, err := extbuf.NewSharded("knuth", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if observe != nil {
		observe(s)
	}
	run := shardedCrashRun{acked: map[uint64]uint64{}, candidates: map[uint64]map[uint64]bool{}}
	cur := map[uint64]uint64{}
	submit := func(key, val uint64) {
		if run.candidates[key] == nil {
			run.candidates[key] = map[uint64]bool{}
		}
		run.candidates[key][val] = true
		cur[key] = val
	}
	for round := 0; round < 6 && !run.crashed; round++ {
		var calls []*extbuf.BatchCall
		for b := 0; b < 4; b++ {
			keys, vals := make([]uint64, 16), make([]uint64, 16)
			for i := range keys {
				keys[i] = uint64(round*64+b*16+i) % 160
				vals[i] = uint64(round)<<32 | keys[i]
				submit(keys[i], vals[i])
			}
			c, err := s.StartBatch(extbuf.BatchUpsert, false, keys, vals, nil, nil)
			if err != nil {
				run.crashed = true
				break
			}
			calls = append(calls, c)
		}
		for _, c := range calls {
			if _, err := c.Wait(); err != nil {
				run.crashed = true
			}
		}
		if !run.crashed && round%2 == 1 {
			if err := s.Flush(); err != nil {
				run.crashed = true
				break
			}
			if round == 1 && flushed != nil {
				flushed()
			}
			run.acked = copyState(cur)
			run.candidates = map[uint64]map[uint64]bool{}
			for kk, vv := range cur {
				run.candidates[kk] = map[uint64]bool{vv: true}
			}
		}
	}
	if err := s.Close(); err != nil {
		run.crashed = true
	}
	return run
}

// TestCrashShardedPipelinedRecovers is the acceptance scenario: a
// sharded engine with several started upserts outstanding on its shard
// queues, crashed at an arbitrary write in each shard, reopened, and
// checked per key — every key holds its acknowledged value or the value
// of a later submitted operation on it, and keys never submitted stay
// absent.
//
// Each shard counts its writes against the plan on its own. Besides a
// few early crash points, the points are fractions of the writes a
// fault-free dry run counts in its least busy shard, so they stay inside
// the workload however many writes the store batches together. One more
// point is the first multi-frame block-file pwrite of shard 0 after the
// first checkpoint — an eviction batch or a coalesced flush run — torn
// like every other: the run may only cover slots that checkpoint does
// not reference, or recovery reads torn blocks.
func TestCrashShardedPipelinedRecovers(t *testing.T) {
	const shards = 4
	base := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 2048, Seed: 11,
		Backend: "file", CacheBlocks: 8,
	}
	slotBytes := 8 + 16*base.BlockSize
	dry := base
	dry.Path = filepath.Join(t.TempDir(), "shards")
	dry.Crash = &extbuf.CrashPlan{FailAfterWrites: 1 << 40}
	var crashers []*iomodel.Crasher
	var checkpointed, batchWrite int64
	var mu sync.Mutex // the observer runs on shard 0's worker
	run := runShardedCrashWorkload(t, dry, func(s *extbuf.Sharded) {
		for i := range shards {
			crashers = append(crashers, extbuf.ShardCrasherForTest(s, i))
		}
		blockFile := dry.Path + ".shard000"
		crashers[0].Observe(func(n int64, name string, size int) {
			mu.Lock()
			defer mu.Unlock()
			if batchWrite == 0 && checkpointed > 0 && n > checkpointed && name == blockFile && size >= 2*slotBytes {
				batchWrite = n
			}
		})
	}, func() {
		mu.Lock()
		checkpointed = crashers[0].Writes()
		mu.Unlock()
	})
	if run.crashed {
		t.Fatal("the fault-free dry run failed")
	}
	writes := crashers[0].Writes()
	for _, c := range crashers[1:] {
		writes = min(writes, c.Writes())
	}
	if batchWrite == 0 {
		t.Fatal("the dry run issued no multi-frame block write after its first checkpoint")
	}
	t.Logf("dry run: %d writes in the least busy shard; shard 0 checkpointed at write %d, first batch write %d",
		writes, checkpointed, batchWrite)

	points := []struct {
		name string
		k    int64
	}{
		{"k=3", 3}, {"k=9", 9}, {"k=17", 17},
		{"k=40%", writes * 40 / 100}, {"k=90%", writes * 90 / 100},
		{"k=batch", batchWrite},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			cfg := base
			cfg.Path = filepath.Join(t.TempDir(), "shards")
			cfg.Crash = &extbuf.CrashPlan{FailAfterWrites: p.k, TornWrite: true, Seed: 13}
			run := runShardedCrashWorkload(t, cfg, nil, nil)
			if !run.crashed {
				t.Fatalf("k=%d of a %d-write dry run never crashed", p.k, writes)
			}

			cfg.Crash = nil
			s, err := extbuf.NewSharded("knuth", cfg, shards)
			if err != nil {
				t.Fatalf("reopen after sharded crash: %v", err)
			}
			defer s.Close()
			for key := uint64(0); key < 160; key++ {
				v, ok := s.Lookup(key)
				av, acking := run.acked[key]
				switch {
				case acking && !ok:
					t.Fatalf("acknowledged key %d lost", key)
				case acking && ok && v != av && !run.candidates[key][v]:
					t.Fatalf("key %d = %d; not the acknowledged value %d nor any later submission", key, v, av)
				case !acking && ok && !run.candidates[key][v]:
					t.Fatalf("key %d = %d surfaced from nowhere", key, v)
				}
			}
		})
	}
}

// TestCrashInsideReset pins the crash points a recycled log adds, which
// the matrix above only samples under -short: death inside the header
// write of the Reset that ends a checkpoint (torn at several lengths, and
// whole), death between that header and the new epoch's first spill, and
// death after that spill — which lands on the previous epoch's records,
// not on fresh extent, and ends exactly where stale records begin. A
// torn header must fall back to the checkpoint's LSN; a spill, torn or
// whole, must recover a prefix of the new epoch and nothing of the old.
func TestCrashInsideReset(t *testing.T) {
	run := func(cfg extbuf.Config) (snapshots []map[uint64]uint64, headerWrite int64) {
		cur := map[uint64]uint64{}
		snapshots = []map[uint64]uint64{copyState(cur)}
		tab, err := extbuf.Open("buffered", cfg)
		if err != nil {
			return snapshots, 0
		}
		defer tab.Close()
		// Epoch 1 writes the keys upwards and epoch 2 downwards, so a
		// stale record that validated behind the new epoch's records
		// would overwrite a key they had already set.
		upserts := func(base uint64, keys ...uint64) bool {
			for _, key := range keys {
				if tab.Upsert(key, base+key) != nil {
					return false
				}
				cur[key] = base + key
				snapshots = append(snapshots, copyState(cur))
			}
			return true
		}
		var up, down []uint64
		for key := uint64(0); key < 40; key++ {
			up, down = append(up, key), append(down, 39-key)
		}
		// A Flush that dies in Reset's header write — its last — has
		// committed the checkpoint already: the whole epoch is a legal
		// recovery, and stays in the list.
		if !upserts(100, up...) || tab.Flush() != nil {
			return snapshots, 0
		}
		headerWrite = extbuf.CrashWritesForTest(tab)
		// Epoch 2, acknowledged in two spills over epoch 1's records.
		for _, half := range [][]uint64{down[:20], down[20:]} {
			snapshots = []map[uint64]uint64{copyState(cur)}
			if !upserts(200, half...) || tab.Sync() != nil {
				return snapshots, headerWrite
			}
		}
		return []map[uint64]uint64{copyState(cur)}, headerWrite
	}
	base := extbuf.Config{
		BlockSize: 16, MemoryWords: 512, ExpectedItems: 512, Seed: 5,
		Backend: "file", CacheBlocks: 4,
	}
	cfg := base
	cfg.Path = filepath.Join(t.TempDir(), "count.tbl")
	cfg.Crash = &extbuf.CrashPlan{FailAfterWrites: 1 << 40}
	_, header := run(cfg)
	if header == 0 {
		t.Fatal("fault-free run did not reach its checkpoint")
	}
	for k := header; k <= header+2; k++ {
		for seed := uint64(0); seed < 9; seed++ {
			cfg := base
			cfg.Path = filepath.Join(t.TempDir(), "crash.tbl")
			cfg.Crash = &extbuf.CrashPlan{FailAfterWrites: k, TornWrite: seed > 0, Seed: seed}
			snapshots, _ := run(cfg)
			verifyRecovered(t, "buffered", cfg, fmt.Sprintf("write %d (header is %d) seed %d", k, header, seed), snapshots)
		}
	}
}

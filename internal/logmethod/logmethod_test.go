package logmethod

import (
	"math"
	"testing"
	"testing/quick"

	"extbuf/internal/block"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

func newTable(t *testing.T, b int, mWords int64, gamma int) (*iomodel.Model, *Table) {
	t.Helper()
	model := iomodel.NewModel(b, mWords)
	tab, err := New(model, hashfn.NewIdeal(1), Config{Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	return model, tab
}

func TestInsertLookup(t *testing.T) {
	_, tab := newTable(t, 8, 1024, 2)
	rng := xrand.New(2)
	keys := workload.Keys(rng, 3000)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 3000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.Levels() < 2 {
		t.Fatalf("expected multiple levels, got %d", tab.Levels())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost (ok=%v v=%d want %d)", k, ok, v, i)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := tab.Lookup(rng.Uint64()); ok {
			t.Fatal("found absent key")
		}
	}
}

func TestOverwriteFreshness(t *testing.T) {
	_, tab := newTable(t, 4, 256, 2)
	rng := xrand.New(3)
	keys := workload.Keys(rng, 400)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	// Overwrite every key; old copies sit in deeper levels until merges
	// shadow them, and smallest-first lookup must always see the fresh
	// value.
	for i, k := range keys {
		tab.Insert(k, uint64(i)+1000)
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i)+1000 {
			t.Fatalf("key %d: stale value %d after overwrite", k, v)
		}
	}
	// Overwrites must not inflate the logical count after merges settle:
	// force consolidation and check every key has exactly one live copy.
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i)+1000 {
			t.Fatalf("key %d: value %d after settling", k, v)
		}
	}
}

func TestDeletePurgesAllCopies(t *testing.T) {
	_, tab := newTable(t, 4, 256, 2)
	rng := xrand.New(5)
	keys := workload.Keys(rng, 300)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	// Overwrite to create cross-level copies, then delete.
	for i, k := range keys {
		tab.Insert(k, uint64(i)+7)
	}
	for _, k := range keys {
		ok, _ := tab.Delete(k)
		if !ok {
			t.Fatalf("delete %d failed", k)
		}
		if _, found, _ := tab.Lookup(k); found {
			t.Fatalf("key %d still visible after delete", k)
		}
	}
}

func TestLemma5InsertCost(t *testing.T) {
	// Lemma 5: amortized insertion cost O((gamma/b) log(n/m)). The o(1)
	// character needs b >> gamma*log(n/m), so measure at a realistic
	// block size.
	b := 128
	mWords := int64(2048)
	for _, gamma := range []int{2, 4} {
		model, tab := newTable(t, b, mWords, gamma)
		rng := xrand.New(7)
		n := 100000
		keys := workload.Keys(rng, n)
		c0 := model.Counters()
		for _, k := range keys {
			if _, err := tab.Insert(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		perInsert := float64(model.Counters().Sub(c0).IOs()) / float64(n)
		predicted := float64(gamma) / float64(b) * math.Log2(float64(n)/float64(mWords)) / math.Log2(float64(gamma))
		// The constant is implementation-specific; demand the right
		// order of magnitude and, critically, perInsert << 1 (the whole
		// point of buffering).
		if perInsert > 6*predicted+0.05 {
			t.Fatalf("gamma=%d: insert cost %.4f far above O((g/b)log(n/m)) ~ %.4f",
				gamma, perInsert, predicted)
		}
		if perInsert >= 0.8 {
			t.Fatalf("gamma=%d: insert cost %.4f not o(1)", gamma, perInsert)
		}
	}
}

func TestLemma5QueryCost(t *testing.T) {
	// Query cost O(log_gamma(n/m)): grows with n, shrinks with gamma.
	b := 16
	mWords := int64(512)
	measure := func(gamma, n int) float64 {
		model, tab := newTable(t, b, mWords, gamma)
		rng := xrand.New(11)
		keys := workload.Keys(rng, n)
		for _, k := range keys {
			tab.Insert(k, 0)
		}
		qs := workload.SuccessfulQueries(rng, keys, n, 2000)
		c0 := model.Counters()
		for _, q := range qs {
			if _, ok, _ := tab.Lookup(q); !ok {
				t.Fatal("lost key")
			}
		}
		return float64(model.Counters().Sub(c0).IOs()) / float64(len(qs))
	}
	q2 := measure(2, 30000)
	q8 := measure(8, 30000)
	bound2 := math.Log2(30000.0 / 512)
	if q2 > 2*bound2+2 {
		t.Fatalf("gamma=2 query cost %.2f far above log bound %.2f", q2, bound2)
	}
	if q8 >= q2 {
		t.Fatalf("larger gamma should reduce query cost: g8=%.2f g2=%.2f", q8, q2)
	}
	if q2 <= 1 {
		t.Fatalf("query cost %.2f implausibly low for the log method", q2)
	}
}

func TestMemoryBudgetRespected(t *testing.T) {
	model, tab := newTable(t, 8, 1024, 2)
	rng := xrand.New(13)
	for _, k := range workload.Keys(rng, 10000) {
		if _, err := tab.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
		if model.Mem.Used() > model.Mem.Capacity() {
			t.Fatal("memory budget exceeded")
		}
	}
	if tab.H0Len() > int(model.MWords())/4 {
		t.Fatalf("H0 holds %d items, above its cap", tab.H0Len())
	}
	tab.Close()
	if model.Mem.Used() != 0 {
		t.Fatalf("Close left %d words", model.Mem.Used())
	}
}

func TestCollectAllDedups(t *testing.T) {
	_, tab := newTable(t, 4, 128, 2)
	rng := xrand.New(17)
	keys := workload.Keys(rng, 150)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	for i, k := range keys { // create shadowed copies
		tab.Insert(k, uint64(i)+500)
	}
	entries, _ := tab.CollectAll(nil)
	seen := map[uint64]uint64{}
	for _, e := range entries {
		if _, dup := seen[e.Key]; dup {
			t.Fatalf("CollectAll returned duplicate key %d", e.Key)
		}
		seen[e.Key] = e.Val
	}
	if len(seen) != 150 {
		t.Fatalf("collected %d distinct keys, want 150", len(seen))
	}
	for i, k := range keys {
		if seen[k] != uint64(i)+500 {
			t.Fatalf("key %d: collected stale value %d", k, seen[k])
		}
	}
}

func TestClear(t *testing.T) {
	_, tab := newTable(t, 4, 128, 2)
	rng := xrand.New(19)
	for _, k := range workload.Keys(rng, 200) {
		tab.Insert(k, 0)
	}
	tab.Clear()
	if tab.Len() != 0 || tab.H0Len() != 0 {
		t.Fatalf("Clear left %d items", tab.Len())
	}
	// Structure remains usable.
	tab.Insert(1, 2)
	v, ok, _ := tab.Lookup(1)
	if !ok || v != 2 {
		t.Fatal("table broken after Clear")
	}
}

func TestLevelGeometry(t *testing.T) {
	_, tab := newTable(t, 8, 256, 2)
	rng := xrand.New(23)
	for _, k := range workload.Keys(rng, 5000) {
		tab.Insert(k, 0)
	}
	// Level capacities must grow geometrically by gamma.
	for k := 1; k < tab.Levels(); k++ {
		if tab.levelCap(k+1) != tab.gamma*tab.levelCap(k) {
			t.Fatalf("level %d cap %d, level %d cap %d: not geometric",
				k, tab.levelCap(k), k+1, tab.levelCap(k+1))
		}
	}
}

// set is the UpdateLevels callback of a plain overwrite.
func set(v uint64) func(uint64) (uint64, bool) {
	return func(uint64) (uint64, bool) { return v, true }
}

func TestUpdateLevels(t *testing.T) {
	_, tab := newTable(t, 4, 128, 2)
	rng := xrand.New(29)
	keys := workload.Keys(rng, 200)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	// Find a key that has migrated to disk.
	var diskKey uint64
	found := false
	for _, k := range keys {
		if _, inMem := tab.LookupMem(k); !inMem {
			diskKey = k
			found = true
			break
		}
	}
	if !found {
		t.Skip("no key migrated to disk at these parameters")
	}
	ok, _ := tab.UpdateLevels(diskKey, set(9999))
	if !ok {
		t.Fatal("UpdateLevels missed a disk-resident key")
	}
	v, ok, _ := tab.Lookup(diskKey)
	if !ok || v != 9999 {
		t.Fatalf("v = %d after UpdateLevels", v)
	}
	if ok, _ := tab.UpdateLevels(0xdeadbeef, set(1)); ok {
		t.Fatal("UpdateLevels hit an absent key")
	}
}

// TestFirstHitDelete covers the pair the Theorem 2 structure deletes
// through: on distinct keys (one copy each) DeleteMem and
// DeleteLevelsLargestFirst together remove exactly that copy, at the
// cost of the largest-first lookup that finds it, and keep Len exact.
func TestFirstHitDelete(t *testing.T) {
	_, tab := newTable(t, 4, 128, 2)
	rng := xrand.New(31)
	keys := workload.Keys(rng, 300)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	mem, disk := 0, 0
	for i, k := range keys {
		if n := tab.Copies(k); n != 1 {
			t.Fatalf("key %d has %d copies", k, n)
		}
		if _, inMem := tab.LookupMem(k); inMem {
			mem++
			if !tab.DeleteMem(k) {
				t.Fatalf("DeleteMem missed H_0-resident key %d", k)
			}
		} else {
			disk++
			if tab.DeleteMem(k) {
				t.Fatalf("DeleteMem hit disk-resident key %d", k)
			}
			_, _, lookup := tab.LookupLevelsLargestFirst(k)
			ok, ios := tab.DeleteLevelsLargestFirst(k)
			if !ok || ios < lookup || ios > lookup+2 {
				t.Fatalf("key %d: delete ok=%v ios=%d, lookup %d", k, ok, ios, lookup)
			}
		}
		if tab.Copies(k) != 0 || tab.Len() != len(keys)-i-1 {
			t.Fatalf("key %d: %d copies left, Len %d", k, tab.Copies(k), tab.Len())
		}
		if ok, _ := tab.DeleteLevelsLargestFirst(k); ok || tab.DeleteMem(k) {
			t.Fatalf("key %d deleted twice", k)
		}
	}
	if mem == 0 || disk == 0 {
		t.Fatalf("parameters left a component unexercised: %d in memory, %d on disk", mem, disk)
	}
}

// TestMergeKeepsBlockCount pins the block bookkeeping of the merge
// path: mergeInto hands each level the blocks its merges allocated and
// freed, and after growth merges (fresh keys), replacement merges
// (overwrites) and shrinking ones (deletes, then a cascade that empties
// tails) every level's DiskBlocks still equals a walk of its chains.
func TestMergeKeepsBlockCount(t *testing.T) {
	_, tab := newTable(t, 4, 128, 2)
	audit := func(when string) {
		t.Helper()
		for k, lv := range tab.levels {
			walked := 0
			for i := 0; i < lv.t.NumBuckets(); i++ {
				walked += block.Blocks(tab.model.Disk, lv.t.BucketHead(i))
			}
			if got := lv.t.DiskBlocks(); got != walked {
				t.Fatalf("%s: level %d counts %d blocks, its chains hold %d", when, k+1, got, walked)
			}
		}
	}
	keys := workload.Keys(xrand.New(47), 2000)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	audit("after fresh inserts")
	for i, k := range keys[:1000] {
		tab.Insert(k, uint64(i)+7)
	}
	audit("after overwrites")
	for _, k := range keys[500:1800] {
		tab.Delete(k)
	}
	for i, k := range workload.Keys(xrand.New(48), 600) {
		tab.Insert(k, uint64(i))
	}
	audit("after deletes and refill")
	if tab.Migrations() == 0 || tab.Levels() < 2 {
		t.Fatalf("parameters exercised no cascade: %d migrations, %d levels", tab.Migrations(), tab.Levels())
	}

	// The block operations keep chains dense, so the cascade above never
	// takes mergeChain's shrinking branch; a hand-built sparse chain does:
	// of three blocks holding one entry each, the fresh entries replace
	// the two in the tail, land in the head, and the tail is freed.
	d := tab.model.Disk
	ids := []iomodel.BlockID{d.Alloc(), d.Alloc(), d.Alloc()}
	for i, id := range ids {
		d.Write(id, []iomodel.Entry{{Key: uint64(i + 1), Val: 1}})
		if i > 0 {
			d.SetNext(ids[i-1], id)
		}
	}
	_, added, blocks := tab.mergeChain(ids[0], []iomodel.Entry{{Key: 2, Val: 2}, {Key: 3, Val: 2}})
	if added != 0 || blocks != -2 || block.Blocks(d, ids[0]) != 1 {
		t.Fatalf("sparse chain: added %d, block delta %d, %d blocks left; want 0, -2, 1",
			added, blocks, block.Blocks(d, ids[0]))
	}
}

func TestMatchesMapModelInsertLookup(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		model := iomodel.NewModel(4, 256)
		tab, err := New(model, hashfn.NewIdeal(seed), Config{Gamma: 2})
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		r := xrand.New(seed)
		for _, op := range ops {
			key := uint64(op % 48)
			switch op % 4 {
			case 0, 1: // insert weighted higher: the structure is insert-optimized
				v := r.Uint64()
				if _, err := tab.Insert(key, v); err != nil {
					return false
				}
				ref[key] = v
			case 2:
				ok, _ := tab.Delete(key)
				_, inRef := ref[key]
				if ok != inRef {
					return false
				}
				delete(ref, key)
			default:
				v, ok, _ := tab.Lookup(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		// Final sweep.
		for k, v := range ref {
			got, ok, _ := tab.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

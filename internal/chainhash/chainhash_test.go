package chainhash

import (
	"testing"
	"testing/quick"

	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

func newTable(t *testing.T, b, nbuckets int) (*iomodel.Model, *Table) {
	t.Helper()
	model := iomodel.NewModel(b, 1<<20)
	tab, err := New(model, hashfn.NewIdeal(1), nbuckets)
	if err != nil {
		t.Fatal(err)
	}
	return model, tab
}

func TestInsertLookup(t *testing.T) {
	_, tab := newTable(t, 8, 16)
	rng := xrand.New(2)
	keys := workload.Keys(rng, 500)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	if tab.Len() != 500 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i, k := range keys {
		v, ok, ios := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d: ok=%v v=%d", k, ok, v)
		}
		if ios < 1 {
			t.Fatalf("lookup cost %d < 1", ios)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := tab.Lookup(rng.Uint64()); ok {
			t.Fatal("found absent key")
		}
	}
}

func TestInsertReplaceSemantics(t *testing.T) {
	_, tab := newTable(t, 8, 4)
	tab.Insert(42, 1)
	tab.Insert(42, 2)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after replace", tab.Len())
	}
	v, ok, _ := tab.Lookup(42)
	if !ok || v != 2 {
		t.Fatalf("v = %d", v)
	}
}

func TestDelete(t *testing.T) {
	_, tab := newTable(t, 4, 8)
	rng := xrand.New(3)
	keys := workload.Keys(rng, 200)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	for i, k := range keys {
		if i%2 == 0 {
			ok, _ := tab.Delete(k)
			if !ok {
				t.Fatalf("delete %d failed", k)
			}
		}
	}
	if tab.Len() != 100 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i, k := range keys {
		_, ok, _ := tab.Lookup(k)
		if (i%2 == 0) == ok {
			t.Fatalf("key %d: present=%v want %v", k, ok, i%2 != 0)
		}
	}
	if ok, _ := tab.Delete(12345); ok {
		t.Fatal("deleted absent key")
	}
}

func TestKnuthQueryCostLowLoad(t *testing.T) {
	// At load factor ~0.4 with b = 32, the expected successful lookup
	// cost must be within 1 + 1/2^Omega(b): essentially 1.
	model, tab := newTable(t, 32, 64)
	_ = model
	rng := xrand.New(5)
	n := 819
	keys := workload.Keys(rng, n)
	for _, k := range keys {
		tab.Insert(k, 0)
	}
	totalIOs := 0
	for _, k := range keys {
		_, ok, ios := tab.Lookup(k)
		if !ok {
			t.Fatal("lost key")
		}
		totalIOs += ios
	}
	avg := float64(totalIOs) / float64(n)
	if avg > 1.02 {
		t.Fatalf("avg successful lookup %.4f, want ~1 at low load", avg)
	}
}

func TestGrowth(t *testing.T) {
	_, tab := newTable(t, 8, 4)
	tab.SetMaxLoad(0.75)
	rng := xrand.New(7)
	keys := workload.Keys(rng, 2000)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	if tab.NumBuckets() <= 4 {
		t.Fatalf("table did not grow: %d buckets", tab.NumBuckets())
	}
	if tab.Fill() > 0.75 {
		t.Fatalf("fill %.3f above threshold after growth", tab.Fill())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key lost after growth: %d", k)
		}
	}
}

func TestLoadFactorAccounting(t *testing.T) {
	_, tab := newTable(t, 8, 8)
	if lf := tab.LoadFactor(); lf != 0 {
		t.Fatalf("empty load factor %v", lf)
	}
	rng := xrand.New(9)
	for _, k := range workload.Keys(rng, 32) {
		tab.Insert(k, 0)
	}
	lf := tab.LoadFactor()
	if lf <= 0 || lf > 1 {
		t.Fatalf("load factor %v out of range", lf)
	}
	if tab.DiskBlocks() < 8 {
		t.Fatalf("DiskBlocks %d < bucket count", tab.DiskBlocks())
	}
}

func TestMemoryCharge(t *testing.T) {
	model := iomodel.NewModel(8, 3) // too small for the 4 control words
	if _, err := New(model, hashfn.NewIdeal(1), 4); err == nil {
		t.Fatal("expected memory budget error")
	}
	model2 := iomodel.NewModel(8, 64)
	tab, err := New(model2, hashfn.NewIdeal(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if model2.Mem.Used() == 0 {
		t.Fatal("no memory charged")
	}
	tab.Close()
	if model2.Mem.Used() != 0 {
		t.Fatal("Close did not release memory")
	}
}

// set is the Update callback of a plain overwrite.
func set(v uint64) func(uint64) (uint64, bool) {
	return func(uint64) (uint64, bool) { return v, true }
}

func TestUpdate(t *testing.T) {
	_, tab := newTable(t, 4, 4)
	if ok, _ := tab.Update(1, set(10)); ok {
		t.Fatal("updated absent key")
	}
	tab.Insert(1, 10)
	ok, ios := tab.Update(1, set(20))
	if !ok || ios != 1 {
		t.Fatalf("ok=%v ios=%d", ok, ios)
	}
	v, _, _ := tab.Lookup(1)
	if v != 20 {
		t.Fatalf("v = %d", v)
	}
	// A callback that declines the write still reports the key found,
	// sees the stored value, and leaves it alone.
	var saw uint64
	ok, ios = tab.Update(1, func(cur uint64) (uint64, bool) { saw = cur; return 99, false })
	if !ok || ios != 1 || saw != 20 {
		t.Fatalf("declined update: ok=%v ios=%d saw=%d", ok, ios, saw)
	}
	if v, _, _ := tab.Lookup(1); v != 20 {
		t.Fatalf("declined update wrote %d", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestMergeIn(t *testing.T) {
	model, tab := newTable(t, 8, 8)
	rng := xrand.New(11)
	keys := workload.Keys(rng, 300)
	var entries []iomodel.Entry
	for i, k := range keys[:200] {
		entries = append(entries, iomodel.Entry{Key: k, Val: uint64(i)})
	}
	c0 := model.Counters()
	ios := tab.MergeIn(entries)
	dc := model.Counters().Sub(c0)
	if int64(ios) != dc.IOs() {
		t.Fatalf("reported ios %d != counter delta %d", ios, dc.IOs())
	}
	if tab.Len() != 200 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Merge should exploit write-backs: most blocks are read once and
	// written back free, so IOs should be well below 2 per touched block.
	if dc.WriteBacks == 0 {
		t.Fatal("MergeIn produced no write-backs")
	}
	// Now merge more and verify everything is found.
	for i, k := range keys[200:] {
		tab.MergeIn([]iomodel.Entry{{Key: k, Val: uint64(i)}})
	}
	for _, k := range keys {
		if _, ok, _ := tab.Lookup(k); !ok {
			t.Fatalf("key %d lost after merges", k)
		}
	}
}

func TestMergeInEmpty(t *testing.T) {
	_, tab := newTable(t, 8, 8)
	if ios := tab.MergeIn(nil); ios != 0 {
		t.Fatalf("empty merge cost %d", ios)
	}
}

func TestCollectAllBulkLoadRoundTrip(t *testing.T) {
	_, tab := newTable(t, 4, 8)
	rng := xrand.New(13)
	keys := workload.Keys(rng, 100)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	entries, ios := tab.CollectAll(nil)
	if len(entries) != 100 {
		t.Fatalf("collected %d", len(entries))
	}
	if ios < 8 {
		t.Fatalf("collect ios %d < bucket count", ios)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatal("reset did not empty table")
	}
	tab.BulkLoad(entries)
	if tab.Len() != 100 {
		t.Fatalf("Len = %d after bulk load", tab.Len())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost in round trip", k)
		}
	}
}

func TestAddressOfZoneConsistency(t *testing.T) {
	// Items in the head block of their bucket must be found there.
	_, tab := newTable(t, 8, 16)
	rng := xrand.New(15)
	keys := workload.Keys(rng, 200)
	for _, k := range keys {
		tab.Insert(k, 0)
	}
	d := tab.Disk()
	inHead := 0
	for _, k := range keys {
		blk := tab.AddressOf(k)
		for _, e := range d.Peek(blk) {
			if e.Key == k {
				inHead++
				break
			}
		}
	}
	// At fill ~1.56 items/bucket-block... with 200 items and 16 buckets of
	// capacity 8, overflow is certain; but the majority must be in heads.
	if inHead < 100 {
		t.Fatalf("only %d/200 items in their addressed block", inHead)
	}
}

func TestTableMatchesMapModel(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		model := iomodel.NewModel(4, 1<<16)
		tab, err := New(model, hashfn.NewIdeal(seed), 4)
		if err != nil {
			return false
		}
		tab.SetMaxLoad(0.8)
		ref := map[uint64]uint64{}
		r := xrand.New(seed)
		for _, op := range ops {
			key := uint64(op % 32)
			switch op % 3 {
			case 0:
				v := r.Uint64()
				tab.Insert(key, v)
				ref[key] = v
			case 1:
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
			if tab.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

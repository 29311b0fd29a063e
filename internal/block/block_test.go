package block

import (
	"testing"
	"testing/quick"

	"extbuf/internal/iomodel"
	"extbuf/internal/xrand"
)

func newChain(t *testing.T, b int) (*iomodel.Disk, iomodel.BlockID) {
	t.Helper()
	d := iomodel.NewDisk(b)
	head := d.Alloc()
	d.Write(head, nil)
	return d, head
}

func TestInsertFind(t *testing.T) {
	d, head := newChain(t, 4)
	for k := uint64(1); k <= 10; k++ {
		Insert(d, head, iomodel.Entry{Key: k, Val: k * 100})
	}
	for k := uint64(1); k <= 10; k++ {
		v, ok, ios := Find(d, head, k)
		if !ok || v != k*100 {
			t.Fatalf("key %d: ok=%v v=%d", k, ok, v)
		}
		if ios < 1 || ios > 3 {
			t.Fatalf("key %d: suspicious probe count %d", k, ios)
		}
	}
	if _, ok, _ := Find(d, head, 999); ok {
		t.Fatal("found absent key")
	}
}

func TestInsertSingleBlockCost(t *testing.T) {
	d, head := newChain(t, 8)
	c0 := d.Counters()
	ios, grew, replaced := Insert(d, head, iomodel.Entry{Key: 1})
	if ios != 1 || grew || replaced {
		t.Fatalf("ios=%d grew=%v replaced=%v", ios, grew, replaced)
	}
	dc := d.Counters().Sub(c0)
	if dc.IOs() != 1 || dc.WriteBacks != 1 {
		t.Fatalf("unexpected cost: %+v", dc)
	}
}

func TestInsertReplace(t *testing.T) {
	d, head := newChain(t, 4)
	Insert(d, head, iomodel.Entry{Key: 7, Val: 1})
	_, grew, replaced := Insert(d, head, iomodel.Entry{Key: 7, Val: 2})
	if grew || !replaced {
		t.Fatalf("grew=%v replaced=%v", grew, replaced)
	}
	v, ok, _ := Find(d, head, 7)
	if !ok || v != 2 {
		t.Fatalf("replace lost value: %d", v)
	}
	if n := Len(d, head); n != 1 {
		t.Fatalf("len = %d after replace", n)
	}
}

func TestOverflowGrowth(t *testing.T) {
	d, head := newChain(t, 2)
	var grewCount int
	for k := uint64(0); k < 7; k++ {
		_, grew, _ := Insert(d, head, iomodel.Entry{Key: k})
		if grew {
			grewCount++
		}
	}
	if Blocks(d, head) != 4 { // ceil(7/2) = 4 blocks
		t.Fatalf("blocks = %d", Blocks(d, head))
	}
	if grewCount != 3 {
		t.Fatalf("grew %d times, want 3", grewCount)
	}
	if Len(d, head) != 7 {
		t.Fatalf("len = %d", Len(d, head))
	}
}

func TestInsertNoDup(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 5; k++ {
		InsertNoDup(d, head, iomodel.Entry{Key: k})
	}
	if Len(d, head) != 5 {
		t.Fatalf("len = %d", Len(d, head))
	}
	for k := uint64(0); k < 5; k++ {
		if _, ok, _ := Find(d, head, k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
}

func TestDelete(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 6; k++ {
		Insert(d, head, iomodel.Entry{Key: k, Val: k})
	}
	if _, found, _ := Delete(d, head, 99); found {
		t.Fatal("deleted absent key")
	}
	for k := uint64(0); k < 6; k++ {
		_, found, _ := Delete(d, head, k)
		if !found {
			t.Fatalf("key %d not found for delete", k)
		}
		if _, ok, _ := Find(d, head, k); ok {
			t.Fatalf("key %d still present after delete", k)
		}
		if got, want := Len(d, head), int(5-k); got != want {
			t.Fatalf("len = %d want %d", got, want)
		}
	}
	if Blocks(d, head) != 1 {
		t.Fatalf("empty chain should shrink to head only, has %d blocks", Blocks(d, head))
	}
}

// TestDeleteChainShapes pins Delete's exact cost and effect over every
// chain shape, with b = 2 and keys 0..n-1 inserted in order (so block i
// of the chain holds keys 2i and 2i+1). The disk runs strict, so any
// write-back that does not immediately follow the read of its own block
// panics; a delete performs no cold write at all.
func TestDeleteChainShapes(t *testing.T) {
	cases := []struct {
		name   string
		n      int    // keys in the chain before the delete
		victim uint64 // key to delete
		ios    int
		freed  int
	}{
		{"single block", 2, 0, 1, 0},
		{"single block emptied keeps the head", 1, 0, 1, 0},
		{"miss walks the chain once", 6, 99, 3, 0},
		{"victim in last block", 6, 5, 3, 0},
		{"victim in head block", 6, 0, 4, 0},
		{"victim in middle block", 6, 2, 4, 0},
		{"victim alone in last block: unlink via predecessor", 5, 4, 4, 1},
		{"backfill empties last block, victim in head", 5, 0, 5, 1},
		{"backfill empties last block, victim in its predecessor", 5, 2, 4, 1},
		{"two blocks, backfill empties the second", 3, 0, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, head := newChain(t, 2)
			d.SetStrict(true)
			for k := uint64(0); k < uint64(tc.n); k++ {
				Insert(d, head, iomodel.Entry{Key: k, Val: k + 100})
			}
			blocks := Blocks(d, head)
			c0 := d.Counters()
			ios, found, freed := Delete(d, head, tc.victim)
			dc := d.Counters().Sub(c0)
			present := tc.victim < uint64(tc.n)
			if ios != tc.ios || freed != tc.freed || found != present {
				t.Fatalf("Delete = (ios %d, found %v, freed %d), want (%d, %v, %d)",
					ios, found, freed, tc.ios, present, tc.freed)
			}
			if dc.Reads != int64(ios) || dc.Writes != 0 {
				t.Fatalf("charged %+v for %d reported I/Os", dc, ios)
			}
			if got := Blocks(d, head); got != blocks-freed || d.NumBlocks() != got {
				t.Fatalf("chain has %d blocks (%d allocated), want %d", got, d.NumBlocks(), blocks-freed)
			}
			// Survivors intact, victim gone, and only the last block may
			// have free space (what Insert's duplicate scan relies on).
			for k := uint64(0); k < uint64(tc.n); k++ {
				v, ok, _ := Find(d, head, k)
				if ok != (k != tc.victim) || (ok && v != k+100) {
					t.Fatalf("key %d: (%d, %v) after deleting %d", k, v, ok, tc.victim)
				}
			}
			want := tc.n
			if present {
				want--
			}
			if Len(d, head) != want {
				t.Fatalf("Len = %d, want %d", Len(d, head), want)
			}
			for id := head; d.Next(id) != iomodel.NilBlock; id = d.Next(id) {
				if len(d.Peek(id)) != d.B() {
					t.Fatalf("non-final block %d holds %d entries", id, len(d.Peek(id)))
				}
			}
		})
	}
}

func TestUpdate(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 5; k++ {
		Insert(d, head, iomodel.Entry{Key: k, Val: k})
	}
	c0 := d.Counters()
	found, ios := Update(d, head, 4, func(cur uint64) (uint64, bool) { return cur + 10, true })
	if !found || ios != 3 {
		t.Fatalf("write: found=%v ios=%d", found, ios)
	}
	if v, _, _ := Find(d, head, 4); v != 14 {
		t.Fatalf("value = %d", v)
	}
	c1 := d.Counters()
	if dc := c1.Sub(c0); dc.Reads != 3+3 || dc.Writes != 0 || dc.WriteBacks != 1 {
		t.Fatalf("write charged %+v", dc)
	}
	// A declined write and a miss cost the walk and write nothing.
	found, ios = Update(d, head, 2, func(uint64) (uint64, bool) { return 0, false })
	if !found || ios != 2 {
		t.Fatalf("declined: found=%v ios=%d", found, ios)
	}
	found, ios = Update(d, head, 99, func(uint64) (uint64, bool) { t.Fatal("fn called on a miss"); return 0, false })
	if found || ios != 3 {
		t.Fatalf("miss: found=%v ios=%d", found, ios)
	}
	if dc := d.Counters().Sub(c1); dc.Reads != 5 || dc.Writes != 0 || dc.WriteBacks != 0 {
		t.Fatalf("declined + miss charged %+v", dc)
	}
	if v, _, _ := Find(d, head, 2); v != 2 {
		t.Fatalf("declined update wrote %d", v)
	}
	// The write stored one entry in place: the chain's shape and every
	// other entry are as they were, and no pin is left behind.
	if Len(d, head) != 5 || Blocks(d, head) != 3 {
		t.Fatalf("chain after updates: %d entries in %d blocks", Len(d, head), Blocks(d, head))
	}
	for k := uint64(0); k < 4; k++ {
		if v, _, _ := Find(d, head, k); v != k {
			t.Fatalf("key %d = %d after updating key 4", k, v)
		}
	}
	if p := d.Store().(*iomodel.MemStore).PinnedBlocks(); p != 0 {
		t.Fatalf("%d pins left", p)
	}
}

// TestUpdateZeroAllocs: a read-modify-write scans the store's own block
// and stores the one entry, with no buffer and no allocation.
func TestUpdateZeroAllocs(t *testing.T) {
	d, head := newChain(t, 4)
	for k := uint64(0); k < 10; k++ {
		Insert(d, head, iomodel.Entry{Key: k, Val: k})
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		k = (k + 3) % 10
		if found, _ := Update(d, head, k, func(cur uint64) (uint64, bool) { return cur + 1, true }); !found {
			t.Fatalf("key %d lost", k)
		}
	})
	if allocs != 0 {
		t.Fatalf("Update: %.2f allocs/op, want 0", allocs)
	}
}

func TestDeleteCompactsBlocks(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 8; k++ {
		Insert(d, head, iomodel.Entry{Key: k})
	}
	before := Blocks(d, head)
	// Delete everything except one entry; chain must shrink.
	for k := uint64(0); k < 7; k++ {
		Delete(d, head, k)
	}
	after := Blocks(d, head)
	if after >= before {
		t.Fatalf("chain did not compact: %d -> %d blocks", before, after)
	}
	if Len(d, head) != 1 {
		t.Fatalf("len = %d", Len(d, head))
	}
	if _, ok, _ := Find(d, head, 7); !ok {
		t.Fatal("survivor key lost")
	}
}

func TestCollect(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 5; k++ {
		Insert(d, head, iomodel.Entry{Key: k, Val: k * 2})
	}
	out, ios := Collect(d, head, nil)
	if len(out) != 5 {
		t.Fatalf("collected %d entries", len(out))
	}
	if ios != Blocks(d, head) {
		t.Fatalf("collect ios %d != blocks %d", ios, Blocks(d, head))
	}
	seen := map[uint64]uint64{}
	for _, e := range out {
		seen[e.Key] = e.Val
	}
	for k := uint64(0); k < 5; k++ {
		if seen[k] != k*2 {
			t.Fatalf("key %d val %d", k, seen[k])
		}
	}
}

func TestWriteChainAndFree(t *testing.T) {
	d := iomodel.NewDisk(3)
	var entries []iomodel.Entry
	for k := uint64(0); k < 10; k++ {
		entries = append(entries, iomodel.Entry{Key: k})
	}
	head, ios := WriteChain(d, entries)
	if ios != 4 { // ceil(10/3)
		t.Fatalf("write ios = %d", ios)
	}
	if Len(d, head) != 10 || Blocks(d, head) != 4 {
		t.Fatalf("len=%d blocks=%d", Len(d, head), Blocks(d, head))
	}
	FreeChain(d, head)
	if d.NumBlocks() != 0 {
		t.Fatalf("blocks leaked: %d", d.NumBlocks())
	}
}

func TestWriteChainEmpty(t *testing.T) {
	d := iomodel.NewDisk(3)
	head, ios := WriteChain(d, nil)
	if ios != 1 {
		t.Fatalf("empty chain write ios = %d", ios)
	}
	if Len(d, head) != 0 || Blocks(d, head) != 1 {
		t.Fatal("empty chain should be a single empty head block")
	}
}

func TestRewriteKeepsHead(t *testing.T) {
	d, head := newChain(t, 2)
	for k := uint64(0); k < 6; k++ {
		Insert(d, head, iomodel.Entry{Key: k})
	}
	newEntries := []iomodel.Entry{{Key: 100}, {Key: 101}, {Key: 102}}
	Rewrite(d, head, newEntries)
	if Len(d, head) != 3 {
		t.Fatalf("len = %d", Len(d, head))
	}
	if _, ok, _ := Find(d, head, 100); !ok {
		t.Fatal("rewritten key missing")
	}
	if _, ok, _ := Find(d, head, 0); ok {
		t.Fatal("old key survived rewrite")
	}
	// Shrinking rewrite must release blocks.
	Rewrite(d, head, nil)
	if Blocks(d, head) != 1 || Len(d, head) != 0 {
		t.Fatal("rewrite to empty did not shrink chain")
	}
}

func TestSortByKey(t *testing.T) {
	es := []iomodel.Entry{{Key: 3}, {Key: 1}, {Key: 2}}
	SortByKey(es)
	if es[0].Key != 1 || es[1].Key != 2 || es[2].Key != 3 {
		t.Fatalf("not sorted: %v", es)
	}
}

// TestChainMatchesMapModel drives a random op sequence against both the
// chain and a map reference model and requires identical behaviour.
func TestChainMatchesMapModel(t *testing.T) {
	f := func(seed uint64, opsRaw []byte) bool {
		d := iomodel.NewDisk(3)
		head := d.Alloc()
		d.Write(head, nil)
		model := map[uint64]uint64{}
		r := xrand.New(seed)
		for _, op := range opsRaw {
			key := uint64(op % 16) // small key space to force collisions
			switch {
			case op%3 == 0: // insert/update
				val := r.Uint64()
				Insert(d, head, iomodel.Entry{Key: key, Val: val})
				model[key] = val
			case op%3 == 1: // delete
				_, found, _ := Delete(d, head, key)
				_, inModel := model[key]
				if found != inModel {
					return false
				}
				delete(model, key)
			default: // lookup
				v, ok, _ := Find(d, head, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
			if Len(d, head) != len(model) {
				return false
			}
		}
		// Final full verification.
		out, _ := Collect(d, head, nil)
		if len(out) != len(model) {
			return false
		}
		for _, e := range out {
			if model[e.Key] != e.Val {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

package iomodel

import (
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Reads: 10, Writes: 5, WriteBacks: 3}
	b := Counters{Reads: 4, Writes: 2, WriteBacks: 1}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 3 || d.WriteBacks != 2 {
		t.Fatalf("Sub = %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Fatalf("Add(Sub) != original: %+v", s)
	}
	if a.IOs() != 15 {
		t.Fatalf("IOs = %d", a.IOs())
	}
	if a.Transfers() != 18 {
		t.Fatalf("Transfers = %d", a.Transfers())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewDisk(4)
	id := d.Alloc()
	in := []Entry{{1, 10}, {2, 20}}
	d.Write(id, in)
	out := d.Read(id, nil)
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip failed: %v", out)
	}
	c := d.Counters()
	if c.Reads != 1 || c.Writes != 1 || c.WriteBacks != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := NewDisk(4)
	id := d.Alloc()
	d.Write(id, []Entry{{1, 10}})
	out := d.Read(id, nil)
	out[0].Val = 999
	again := d.Read(id, nil)
	if again[0].Val != 10 {
		t.Fatal("mutating the returned slice changed disk contents")
	}
}

func TestWriteBackAfterRead(t *testing.T) {
	d := NewDisk(4)
	id := d.Alloc()
	d.Write(id, []Entry{{1, 1}})
	buf := d.Read(id, nil)
	buf = append(buf, Entry{2, 2})
	d.WriteBack(id, buf)
	c := d.Counters()
	if c.IOs() != 2 { // 1 write + 1 read; write-back free
		t.Fatalf("IOs = %d, want 2", c.IOs())
	}
	if got := d.Read(id, nil); len(got) != 2 {
		t.Fatalf("write-back lost data: %v", got)
	}
}

func TestWriteBackStrictViolation(t *testing.T) {
	d := NewDisk(4)
	a, b := d.Alloc(), d.Alloc()
	d.Write(a, nil)
	d.Write(b, nil)
	d.Read(a, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBack to non-last-read block did not panic in strict mode")
		}
	}()
	d.WriteBack(b, nil) // b was not the last read
}

func TestWriteBackNonStrict(t *testing.T) {
	d := NewDisk(4)
	d.SetStrict(false)
	a, b := d.Alloc(), d.Alloc()
	d.Write(a, nil)
	d.Write(b, nil)
	d.Read(a, nil)
	d.WriteBack(b, nil) // allowed when strict is off
}

func TestWriteBackAfterWriteInvalid(t *testing.T) {
	d := NewDisk(4)
	id := d.Alloc()
	d.Write(id, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBack after Write (no Read) did not panic")
		}
	}()
	d.WriteBack(id, nil)
}

func TestAllocFreeReuse(t *testing.T) {
	d := NewDisk(4)
	a := d.Alloc()
	d.Write(a, []Entry{{1, 1}})
	d.SetNext(a, 99) // garbage pointer that must be cleared on reuse
	d.Free(a)
	if d.NumBlocks() != 0 {
		t.Fatalf("NumBlocks = %d after free", d.NumBlocks())
	}
	b := d.Alloc()
	if b != a {
		t.Fatalf("allocator did not reuse freed block: got %d want %d", b, a)
	}
	if d.Next(b) != NilBlock {
		t.Fatal("reused block kept stale next pointer")
	}
	if len(d.Peek(b)) != 0 {
		t.Fatal("reused block kept stale contents")
	}
}

func TestBlockCapacityEnforced(t *testing.T) {
	d := NewDisk(2)
	id := d.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("overfull write did not panic")
		}
	}()
	d.Write(id, []Entry{{1, 0}, {2, 0}, {3, 0}})
}

func TestInvalidBlockID(t *testing.T) {
	d := NewDisk(2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid id did not panic")
		}
	}()
	d.Read(5, nil)
}

func TestNextPointers(t *testing.T) {
	d := NewDisk(2)
	a, b := d.Alloc(), d.Alloc()
	if d.Next(a) != NilBlock {
		t.Fatal("fresh block has non-nil next")
	}
	d.SetNext(a, b)
	if d.Next(a) != b {
		t.Fatal("SetNext lost pointer")
	}
}

func TestResetCounters(t *testing.T) {
	d := NewDisk(2)
	id := d.Alloc()
	d.Write(id, nil)
	d.ResetCounters()
	if d.Counters() != (Counters{}) {
		t.Fatal("reset did not zero counters")
	}
}

func TestMemoryBudget(t *testing.T) {
	m := NewMemory(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(50); err == nil {
		t.Fatal("over-budget alloc succeeded")
	}
	if m.Used() != 60 {
		t.Fatalf("failed alloc changed Used: %d", m.Used())
	}
	if err := m.Alloc(40); err != nil {
		t.Fatal("exact-fit alloc failed")
	}
	if m.Free() != 0 {
		t.Fatalf("Free = %d", m.Free())
	}
	m.Release(100)
	if m.Used() != 0 {
		t.Fatalf("Used = %d after release", m.Used())
	}
	if m.Peak() != 100 {
		t.Fatalf("Peak = %d", m.Peak())
	}
}

func TestMemoryOverRelease(t *testing.T) {
	m := NewMemory(10)
	m.MustAlloc(5)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	m.Release(6)
}

func TestModel(t *testing.T) {
	mo := NewModel(8, 1024)
	if mo.B() != 8 || mo.MWords() != 1024 {
		t.Fatalf("model params: b=%d m=%d", mo.B(), mo.MWords())
	}
	id := mo.Disk.Alloc()
	mo.Disk.Write(id, []Entry{{1, 1}})
	if mo.Counters().Writes != 1 {
		t.Fatal("model counters not wired to disk")
	}
}

func TestAllocFreeProperty(t *testing.T) {
	// Property: after any interleaving of allocs and frees, NumBlocks
	// equals live count and every live block is readable.
	f := func(ops []bool) bool {
		d := NewDisk(2)
		var live []BlockID
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				live = append(live, d.Alloc())
			} else {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				d.Free(id)
			}
		}
		if d.NumBlocks() != len(live) {
			return false
		}
		for _, id := range live {
			d.Read(id, nil)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackEntryOrder: the one-entry write-back obeys WriteBack's
// footnote-2 rule — legal only directly after Read or ReadPinned of the
// same block — and strict mode off lifts it the same way.
func TestWriteBackEntryOrder(t *testing.T) {
	setup := func() (*Disk, BlockID, BlockID) {
		d := NewDisk(4)
		a, b := d.Alloc(), d.Alloc()
		d.Write(a, []Entry{{1, 1}})
		d.Write(b, []Entry{{2, 2}})
		return d, a, b
	}
	illegal := map[string]func(d *Disk, a, b BlockID){
		"no read":          func(d *Disk, a, b BlockID) {},
		"other block read": func(d *Disk, a, b BlockID) { d.Read(b, nil) },
		"read then write":  func(d *Disk, a, b BlockID) { d.Read(a, nil); d.Write(b, nil) },
		"second write-back": func(d *Disk, a, b BlockID) {
			d.Read(a, nil)
			d.WriteBackEntry(a, 0, Entry{1, 5})
		},
		"cleared": func(d *Disk, a, b BlockID) { d.Read(a, nil); d.Clear(a); d.Write(a, []Entry{{1, 1}}) },
	}
	for name, before := range illegal {
		t.Run(name, func(t *testing.T) {
			d, a, b := setup()
			before(d, a, b)
			defer func() {
				if r := recover(); r != ErrWriteBackOrder {
					t.Fatalf("panic = %v, want ErrWriteBackOrder", r)
				}
			}()
			d.WriteBackEntry(a, 0, Entry{1, 9})
		})
	}
	legal := map[string]func(d *Disk, id BlockID){
		"after Read":       func(d *Disk, id BlockID) { d.Read(id, nil) },
		"after ReadPinned": func(d *Disk, id BlockID) { d.ReadPinned(id); d.Unpin(id) },
	}
	for name, read := range legal {
		t.Run(name, func(t *testing.T) {
			d, a, _ := setup()
			read(d, a)
			d.WriteBackEntry(a, 0, Entry{1, 9})
			if got := d.Peek(a); len(got) != 1 || got[0] != (Entry{1, 9}) {
				t.Fatalf("block after write-back = %v", got)
			}
		})
	}
	t.Run("non-strict", func(t *testing.T) {
		d, a, b := setup()
		d.SetStrict(false)
		d.Read(b, nil)
		d.WriteBackEntry(a, 0, Entry{1, 9})
	})
}

// TestWriteBackEntryCountsAsWriteBack: a read-modify-write of one entry
// charges exactly what Read + WriteBack of the whole block charges, and
// leaves the same block.
func TestWriteBackEntryCountsAsWriteBack(t *testing.T) {
	whole, one := NewDisk(4), NewDisk(4)
	for _, d := range []*Disk{whole, one} {
		id := d.Alloc()
		d.Write(id, []Entry{{1, 1}, {2, 2}, {3, 3}})
	}
	buf := whole.Read(0, nil)
	buf[1].Val = 20
	whole.WriteBack(0, buf)
	one.ReadPinned(0)
	one.WriteBackEntry(0, 1, Entry{2, 20})
	one.Unpin(0)
	if whole.Counters() != one.Counters() {
		t.Fatalf("counters: Read+WriteBack %v, ReadPinned+WriteBackEntry %v", whole.Counters(), one.Counters())
	}
	if got, want := one.Peek(0), whole.Peek(0); !slices.Equal(got, want) {
		t.Fatalf("block = %v, want %v", got, want)
	}
}

// TestWriteBackEntryFileStore: on a file store the changed entry marks
// its frame dirty, so it survives eviction through a 2-frame pool and,
// on a durable store, Sync and a reopen.
func TestWriteBackEntryFileStore(t *testing.T) {
	const b, n = 4, 16
	fill := func(d *Disk) {
		for i := range n {
			id := d.Alloc()
			d.Write(id, []Entry{{uint64(i), 0}, {uint64(i) + 100, 0}})
		}
		for i := range n {
			id := BlockID(i)
			d.ReadPinned(id)
			d.WriteBackEntry(id, 1, Entry{uint64(i) + 100, uint64(i) * 7})
			d.Unpin(id)
		}
	}
	check := func(t *testing.T, s BlockStore) {
		t.Helper()
		for i := range n {
			got := s.ReadBlock(BlockID(i), nil)
			want := []Entry{{uint64(i), 0}, {uint64(i) + 100, uint64(i) * 7}}
			if !slices.Equal(got, want) {
				t.Fatalf("block %d = %v, want %v", i, got, want)
			}
		}
	}
	t.Run("eviction", func(t *testing.T) {
		s, err := NewTempFileStore(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fill(NewDiskOn(s))
		if s.Stats().DirtyWritebacks == 0 {
			t.Fatal("no dirty eviction: the test is vacuous")
		}
		check(t, s)
	})
	t.Run("durable-reopen", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "entry.blocks")
		s, err := OpenFileStore(path, b, 2, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fill(NewDiskOn(s))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		nslots, free, mapping := s.AllocState()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFileStore(path, b, 2, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.RestoreAllocState(nslots, free, mapping); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
}

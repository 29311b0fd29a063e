//go:build linux

package iomodel

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The mapped arena's own suite: resident bytes of the mappings, the Go
// heap they leave, unmapping by Close and by the cleanup, pinned slices
// across new regions, and huge pages where the kernel grants them.

// residentSlots returns the resident bytes of s's mappings and the
// slack the footprint bound allows them: one huge page per advised
// region, whose last page the slots may fill only in part. It also
// checks that the Go heap grew by the chunk table, not by the slots:
// the 32 KiB allowance covers the runtime's own allocations (up to 6 KiB
// seen under -race) and is below half of one chunk at the test's
// smallest b.
func residentSlots(t *testing.T, s *MemStore, grown int64) (slots, slack int64) {
	t.Helper()
	table := int64(cap(s.chunks)) * int64(unsafe.Sizeof(s.chunks[0]))
	if grown > table+32<<10 {
		t.Fatalf("the Go heap grew by %d bytes for a chunk table of %d: slots are on the heap", grown, table)
	}
	for _, b := range s.arena.m.all {
		slots += resident(t, b)
	}
	return slots, int64(len(s.arena.m.all)-1) * hugePageBytes
}

// resident returns the bytes of b's pages that are present in memory,
// by the present bit of /proc/self/pagemap. smaps' Rss would be the
// same measure per mapping, but the kernel merges a region's untouched
// alignment slack with a neighbouring mapping of the same flags (the
// race detector's, for one), whose pages would then count here.
func resident(t *testing.T, b []byte) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Skipf("no pagemap: %v", err)
	}
	defer f.Close()
	page := uintptr(os.Getpagesize())
	lo, hi := span(b)
	buf := make([]byte, (hi-lo)/page*8)
	if _, err := f.ReadAt(buf, int64(lo/page*8)); err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := 0; i < len(buf); i += 8 {
		if buf[i+7]&0x80 != 0 { // bit 63: present
			n += int64(page)
		}
	}
	return n
}

// anonHugeIn sums AnonHugePages, in bytes, over the /proc/self/smaps
// entries that overlap [lo, hi).
func anonHugeIn(t *testing.T, lo, hi uintptr) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	var huge int64
	overlaps := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		if start, end, ok := strings.Cut(fields[0], "-"); ok { // an entry's header
			a, err1 := strconv.ParseUint(start, 16, 64)
			z, err2 := strconv.ParseUint(end, 16, 64)
			if err1 == nil && err2 == nil {
				overlaps = uintptr(a) < hi && lo < uintptr(z)
				continue
			}
		}
		if overlaps && fields[0] == "AnonHugePages:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			huge += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return huge
}

// span returns the address range of b.
func span(b []byte) (start, end uintptr) {
	start = uintptr(unsafe.Pointer(&b[0]))
	return start, start + uintptr(len(b))
}

// drainMappings collects dropped stores until want mappings are live,
// for up to five seconds, and reports whether it got there.
func drainMappings(t *testing.T, want int64) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if memMappings() == want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestMemStoreMappings: the first chunk is a mapping of its own and the
// next ones share an advised region, which opens only when the last one
// is full; Close unmaps them all, and so does the cleanup of a store
// dropped without Close.
func TestMemStoreMappings(t *testing.T) {
	drainMappings(t, 0)
	base := memMappings()
	const b = 1023 // 8 MiB chunks: eight to a region
	s := NewMemStore(b)
	alloc := func(chunks int) {
		for len(s.chunks) < chunks {
			s.Alloc()
		}
	}
	alloc(1)
	if got := memMappings() - base; got != 1 {
		t.Fatalf("one chunk: %d mappings, want 1", got)
	}
	alloc(1 + regionBytes/(chunkSlots*(b+1)*entryBytes))
	if got := memMappings() - base; got != 2 {
		t.Fatalf("a full region: %d mappings, want 2", got)
	}
	if lo, _ := span(s.arena.m.all[1]); uintptr(unsafe.Pointer(&s.chunks[1][0]))%hugePageBytes != 0 {
		t.Fatalf("region mapped at %#x starts its chunks at %p, not on a huge page", lo, &s.chunks[1][0])
	}
	alloc(len(s.chunks) + 1)
	if got := memMappings() - base; got != 3 {
		t.Fatalf("a chunk past the region: %d mappings, want 3", got)
	}
	s.Close()
	if got := memMappings() - base; got != 0 {
		t.Fatalf("after Close: %d mappings, want 0", got)
	}

	func() {
		d := NewMemStore(b)
		for len(d.chunks) < 3 {
			d.Alloc()
		}
	}()
	if got := memMappings() - base; got != 2 {
		t.Fatalf("dropped store: %d mappings before collection, want 2", got)
	}
	if !drainMappings(t, base) {
		t.Fatalf("dropped store: %d mappings after collection, want 0", memMappings()-base)
	}
}

// TestMemStorePinAcrossRegions: slices pinned in the first chunk and in
// the first region stay the store's memory, with their entries, after
// Allocs that open a second region.
func TestMemStorePinAcrossRegions(t *testing.T) {
	const b = 1023
	s := NewMemStore(b)
	defer s.Close()
	first := s.Alloc()
	for len(s.chunks) < 2 {
		s.Alloc()
	}
	second := BlockID(chunkSlots)
	pins := map[BlockID][]Entry{}
	for _, id := range []BlockID{first, second} {
		s.WriteBlock(id, []Entry{{uint64(id), 1}, {uint64(id), 2}})
		pins[id] = s.PinBlock(id)
	}
	regions := len(s.arena.m.all)
	for len(s.arena.m.all) < regions+1 {
		s.Alloc()
	}
	for id, pinned := range pins {
		if pinned[0] != (Entry{uint64(id), 1}) || pinned[1] != (Entry{uint64(id), 2}) {
			t.Fatalf("block %d pinned view after a new region = %v", id, pinned)
		}
		if again := s.PeekBlock(id); &again[0] != &pinned[0] {
			t.Fatalf("block %d moved while the store grew", id)
		}
		s.UnpinBlock(id)
	}
}

// TestMemStoreHugePages: an advised region's touched bytes come back
// as huge pages, at least half of them, which they cannot if the advice
// came after the first touch. Skipped where the kernel does not grant
// huge pages (THP never, or a fault that fell back to small pages).
func TestMemStoreHugePages(t *testing.T) {
	if thp, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || strings.Contains(string(thp), "[never]") {
		t.Skipf("transparent huge pages off (%q, %v)", thp, err)
	}
	fallback := vmstat(t, "thp_fault_fallback")
	const b = 63 // 512 KiB chunks
	const touched = 16 << 20
	s := NewMemStore(b)
	defer s.Close()
	full := make([]Entry, b)
	for len(s.chunks) <= 1+touched/(chunkSlots*(b+1)*entryBytes) {
		s.WriteBlock(s.Alloc(), full)
	}
	// The advised part of a region is an smaps entry of its own: its
	// flag keeps it from merging with the unadvised slack around it.
	last := s.chunks[len(s.chunks)-1]
	huge := anonHugeIn(t, uintptr(unsafe.Pointer(&s.chunks[1][0])),
		uintptr(unsafe.Pointer(&last[0]))+uintptr(len(last)*entryBytes))
	if vmstat(t, "thp_fault_fallback") > fallback {
		t.Skip("a huge page fault fell back to small pages")
	}
	t.Logf("%d MiB touched, %d KiB huge pages", touched>>20, huge>>10)
	if huge < touched/2 {
		t.Fatalf("%d MiB touched in an advised region, %d KiB of it huge pages: want >= half", touched>>20, huge>>10)
	}
}

// vmstat returns one /proc/vmstat counter.
func vmstat(t *testing.T, name string) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/vmstat")
	if err != nil {
		t.Skipf("no vmstat: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k == name {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skipf("vmstat has no %s", name)
	return 0
}

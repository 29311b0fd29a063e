//go:build linux

package iomodel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// On Linux a MemStore's chunks live in anonymous private mappings
// outside the Go heap. The slots are pointer-free, so the collector
// gains nothing from seeing them, while counting them doubled its heap
// goal; and a random block read of a large store took a TLB miss through
// 4 KiB page tables. So:
//
//   - The first chunk is a mapping of its own, not advised, so a store
//     that never outgrows it never faults a 2 MiB page.
//   - Every later chunk is carved, in order, from a 2 MiB-aligned
//     region of at least regionBytes (MAP_NORESERVE), advised
//     MADV_HUGEPAGE before anything touches it. A chunk never straddles
//     two regions; the rest of a region too short for the next chunk is
//     left untouched. A failed madvise (THP set to never) leaves plain
//     pages.
//
// Fresh anonymous memory reads as zero, which is the empty header Alloc
// promises, so nothing is resident until a slot is written.
const (
	hugePageBytes = 2 << 20
	regionBytes   = 64 << 20
)

// liveMappings counts the mappings of every MemStore in the process.
var liveMappings atomic.Int64

// arena is a store's handle on its mappings and on the cleanup that
// unmaps them if the store is dropped without Close.
type arena struct {
	m       *mappings
	cleanup runtime.Cleanup
}

// mappings is a heap object of its own, apart from the store, so that
// the cleanup can hold it without keeping the store reachable.
type mappings struct {
	all    [][]byte // every mapping, as syscall.Mmap returned it
	region []byte   // the uncarved rest of the current advised region
}

// newChunk returns a zeroed chunk of n entries from the store's
// mappings.
func (s *MemStore) newChunk(n int) []Entry {
	bytes := n * entryBytes
	m := s.arena.m
	if m == nil {
		m = &mappings{}
		s.arena = arena{m: m, cleanup: runtime.AddCleanup(s, (*mappings).unmap, m)}
		return entriesOf(m.mmap(bytes))
	}
	if len(m.region) < bytes {
		size := max(regionBytes, (bytes+hugePageBytes-1)&^(hugePageBytes-1))
		raw := m.mmap(size + hugePageBytes)
		off := int(-uintptr(unsafe.Pointer(&raw[0])) & (hugePageBytes - 1))
		m.region = raw[off : off+size : off+size]
		_ = syscall.Madvise(m.region, syscall.MADV_HUGEPAGE) // fails under THP never: plain pages
	}
	c := m.region[:bytes:bytes]
	m.region = m.region[bytes:]
	return entriesOf(c)
}

// releaseChunks unmaps the store's mappings now instead of at its
// collection.
func (s *MemStore) releaseChunks() {
	if s.arena.m == nil {
		return
	}
	s.arena.cleanup.Stop()
	s.arena.m.unmap()
	s.arena = arena{}
}

// mmap maps size bytes of fresh anonymous memory.
func (m *mappings) mmap(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("iomodel: mapping %d bytes for mem blocks: %v", size, err))
	}
	m.all = append(m.all, b)
	liveMappings.Add(1)
	return b
}

// unmap releases every mapping.
func (m *mappings) unmap() {
	for _, b := range m.all {
		if err := syscall.Munmap(b); err != nil {
			panic(fmt.Sprintf("iomodel: unmapping mem blocks: %v", err))
		}
		liveMappings.Add(-1)
	}
	m.all, m.region = nil, nil
}

// entriesOf views a chunk's bytes as entries. Mappings are page-aligned
// and every chunk a multiple of the entry size, so the view is aligned.
func entriesOf(b []byte) []Entry {
	return unsafe.Slice((*Entry)(unsafe.Pointer(&b[0])), len(b)/entryBytes)
}

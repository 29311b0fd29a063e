package iomodel

import (
	"os"
	"unsafe"
)

// I/O modes for a FileStore. The mode picks both the on-disk slot
// layout and the syscall path:
//
//   - IOModeBuffered: slots are packed at frameBytes stride and every
//     read/write goes through the kernel page cache — the pre-PR 9
//     behavior, and the only mode available to crash-injected stores.
//   - IOModeODirect: the block file is opened O_DIRECT, making the
//     store's own buffer pool the only cache between the tables and the
//     device. Slots are padded to the filesystem's logical sector size
//     so every pread/pwrite offset and length is sector-aligned, and
//     all I/O buffers are allocated sector-aligned. Where the
//     filesystem refuses O_DIRECT the store falls back to buffered
//     syscalls — recorded in FileStats.ODirectFallbacks — but keeps the
//     sector-padded layout, so the file stays readable either way.
//   - IOModeUring: IOModeODirect plus an io_uring submission queue in
//     place of the pwrite worker pool (build tag "iouring", Linux
//     only). When the tag is off or the kernel probe fails the store
//     falls back to the pwrite pool, recorded in
//     FileStats.UringFallbacks.
//
// The two direct modes share one layout, so a store written under
// odirect reopens under uring and vice versa; buffered and direct
// layouts are mutually incompatible (package extbuf's superblock
// records the layout and rejects the mismatch).
const (
	IOModeBuffered = "buffered"
	IOModeODirect  = "odirect"
	IOModeUring    = "uring"
)

// IOOptions selects a FileStore's I/O mode and layout alignment.
type IOOptions struct {
	// Mode is one of the IOMode constants; "" means IOModeBuffered.
	Mode string
	// Sector overrides the layout alignment for the direct modes —
	// superblock-recorded stores reopen with the stride they were
	// written with. 0 probes the backing filesystem.
	Sector int
}

// ValidIOMode reports whether mode names a known I/O mode ("" counts,
// meaning buffered).
func ValidIOMode(mode string) bool {
	switch mode {
	case "", IOModeBuffered, IOModeODirect, IOModeUring:
		return true
	}
	return false
}

// directLayout reports whether mode uses the sector-padded slot layout.
func directLayout(mode string) bool {
	return mode == IOModeODirect || mode == IOModeUring
}

// DirectLayout reports whether mode uses the sector-padded direct
// layout. Exported for package wal, which shares the alignment rules.
func DirectLayout(mode string) bool { return directLayout(mode) }

// OpenDirectFile opens path with flags, attempting O_DIRECT when
// wantDirect and falling back to a buffered fd where the filesystem
// refuses the flag; the bool reports whether the fd actually is
// direct. Exported for package wal.
func OpenDirectFile(path string, flags int, wantDirect bool) (*os.File, bool, error) {
	return openBlockFile(path, flags, wantDirect)
}

// FsSectorSize returns the direct-I/O alignment for the filesystem
// holding path.
func FsSectorSize(path string) int { return fsSectorSize(path) }

// AlignedBuf returns an n-byte buffer whose base address is
// align-aligned, as O_DIRECT requires. Exported for package wal.
func AlignedBuf(n, align int) []byte { return alignedBytes(n, n, align) }

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n, align int64) int64 {
	return (n + align - 1) &^ (align - 1)
}

// alignedBytes allocates an n-byte slice (capacity at least capHint)
// whose base address is align-aligned, as O_DIRECT requires of I/O
// buffers. align <= 1 is a plain make. Go's heap does not move
// objects, so the alignment holds for the buffer's lifetime.
func alignedBytes(n, capHint, align int) []byte {
	c := capHint
	if n > c {
		c = n
	}
	if align <= 1 {
		return make([]byte, n, c)
	}
	raw := make([]byte, c+align)
	off := int(-uintptr(unsafe.Pointer(&raw[0])) & uintptr(align-1))
	return raw[off : off+n : off+c]
}

// uringDepth is the submission-queue depth of a store's io_uring ring:
// deep enough that a checkpoint's coalesced runs queue without
// stalling, small enough that the rings of a many-shard engine stay
// cheap.
const uringDepth = 64

// ioSubmitter is the seam between a FileStore's flush path and its
// asynchronous write backend: the pwrite worker pool (writeback) and
// the io_uring ring (uring, build-tagged) both implement it. All
// methods are store-goroutine only except the internal completion
// paths each implementation owns.
type ioSubmitter interface {
	// getBuf returns an n-byte submission buffer (aligned when the
	// store's layout demands it), recycled from completed jobs.
	getBuf(n int) []byte
	// submit queues one run of sealed images, blocking while an earlier
	// in-flight write overlaps any of its physical slots.
	submit(job wbJob)
	// waitSlot blocks until no in-flight write covers slot phys.
	waitSlot(phys int64)
	// drain blocks until every submitted write completed and returns
	// the sticky first error.
	drain() error
	// shutdown drains and releases the backend's resources.
	shutdown() error
}

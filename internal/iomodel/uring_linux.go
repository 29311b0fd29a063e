//go:build linux && iouring

package iomodel

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// uringBuilt is true in binaries compiled with the iouring build tag.
const uringBuilt = true

// io_uring ABI constants (linux/io_uring.h). The raw-syscall
// implementation keeps the module dependency-free: setup and enter are
// plain syscalls, the rings are three mmaps of the ring fd.
const (
	sysIOURingSetup = 425
	sysIOURingEnter = 426

	ioringOffSQRing = 0
	ioringOffCQRing = 0x8000000
	ioringOffSQEs   = 0x10000000

	ioringEnterGetevents = 1

	// IORING_OP_WRITE: pwrite semantics — fd, buffer address, length,
	// file offset. Kernel >= 5.6; the zero-length probe write at setup
	// verifies support and falls back to the pwrite pool where absent.
	opWrite = 23

	sqeSize = 64
	cqeSize = 16
)

// uringParams mirrors struct io_uring_params (120 bytes).
type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFd         uint32
	resv         [3]uint32
	sqOff        sqringOffsets
	cqOff        cqringOffsets
}

type sqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	flags, dropped, array, resv1      uint32
	resv2                             uint64
}

type cqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	overflow, cqes, flags, resv1      uint32
	resv2                             uint64
}

// uring is the io_uring submission backend behind a FileStore: one
// ring per store, replacing the pwrite worker pool. Unlike the pool it
// runs no goroutines and takes no locks — every method executes on the
// store's goroutine; the kernel provides the concurrency. SQEs for
// flush runs accumulate in the submission queue and are pushed with
// one io_uring_enter at the next barrier (drain), when the queue
// fills, or when an ordering rule needs a completion — so a checkpoint
// submits its runs in batches instead of one syscall each, which is
// where the queue-depth win over the pool comes from on a real device.
//
// The pool's two ordering guarantees carry over unchanged: submit
// blocks (reaping completions) while an earlier in-flight write
// overlaps any of the run's physical slots, and waitSlot blocks a
// pread until the write covering its slot has completed. Errors are
// sticky; once a write has failed, later submits drop their jobs
// unwritten (the same crash-loss semantics as the pool) and the drop
// count joins the error at drain. Short writes are completed
// synchronously with a pwrite through the store's BlockFile.
type uring struct {
	s      *FileStore
	ringFd int
	fileFd int32 // target file descriptor for every SQE

	sqMem, cqMem, sqeMem []byte // mmaps; unmapped at shutdown

	sqHead, sqTail *uint32 // kernel-shared ring indices (atomic access)
	sqMask         uint32
	sqArray        []uint32
	depth          uint32

	cqHead, cqTail *uint32
	cqMask         uint32
	cqeOff         uint32 // CQE array offset inside the CQ mapping

	queued   uint32             // SQEs placed since the last enter
	ops      map[uint64]wbJob   // in-flight writes by user_data token
	slots    map[int64]struct{} // physical slots covered by in-flight writes
	nextTok  uint64
	firstErr error
	dropped  int
	bufs     wbBufs // submission buffers, as in writeback
}

// newURing sets up a ring of the given depth against the store's raw
// fd and probes it with a zero-length write, so opcode support is
// verified before the store commits to the backend. Any failure —
// setup refused (io_uring disabled or absent), mmap failure, probe
// error — returns an error and the caller falls back to the pwrite
// pool.
func newURing(s *FileStore, depth uint32) (ioSubmitter, error) {
	if s.osf == nil {
		return nil, fmt.Errorf("iomodel: io_uring needs the store's raw fd")
	}
	var p uringParams
	rfd, _, errno := syscall.Syscall(sysIOURingSetup, uintptr(depth), uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("iomodel: io_uring_setup: %w", errno)
	}
	u := &uring{
		s:      s,
		ringFd: int(rfd),
		fileFd: int32(s.osf.Fd()),
		depth:  p.sqEntries,
		ops:    make(map[uint64]wbJob, p.sqEntries),
		slots:  make(map[int64]struct{}, 4*p.sqEntries),
		bufs:   wbBufs{slotBytes: int(s.slotBytes), align: int(s.sector)},
	}
	fail := func(err error) (ioSubmitter, error) {
		u.unmap()
		syscall.Close(u.ringFd)
		return nil, err
	}
	var err error
	sqSize := int(p.sqOff.array + p.sqEntries*4)
	if u.sqMem, err = syscall.Mmap(u.ringFd, ioringOffSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE); err != nil {
		return fail(fmt.Errorf("iomodel: mmap sq ring: %w", err))
	}
	cqSize := int(p.cqOff.cqes + p.cqEntries*cqeSize)
	if u.cqMem, err = syscall.Mmap(u.ringFd, ioringOffCQRing, cqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE); err != nil {
		return fail(fmt.Errorf("iomodel: mmap cq ring: %w", err))
	}
	if u.sqeMem, err = syscall.Mmap(u.ringFd, ioringOffSQEs, int(p.sqEntries)*sqeSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE); err != nil {
		return fail(fmt.Errorf("iomodel: mmap sqes: %w", err))
	}
	u.sqHead = (*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.head]))
	u.sqTail = (*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.tail]))
	u.sqMask = *(*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.ringMask]))
	u.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&u.sqMem[p.sqOff.array])), p.sqEntries)
	u.cqHead = (*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.head]))
	u.cqTail = (*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.tail]))
	u.cqMask = *(*uint32)(unsafe.Pointer(&u.cqMem[p.cqOff.ringMask]))
	u.cqeOff = p.cqOff.cqes

	// Probe: a zero-length write (pwrite(fd, NULL, 0) == 0 everywhere
	// the opcode exists) round-trips the whole submit/enter/reap
	// machinery. -EINVAL here means the kernel predates IORING_OP_WRITE.
	u.placeSQE(wbJob{})
	if err := u.enter(1); err != nil {
		return fail(fmt.Errorf("iomodel: io_uring probe enter: %w", err))
	}
	u.reap()
	if len(u.ops) != 0 || u.firstErr != nil {
		return fail(fmt.Errorf("iomodel: io_uring probe write: %w", u.firstErr))
	}
	// The probe charged the ring counters; the store's stats should
	// meter real work only.
	u.s.stats.UringEnters, u.s.stats.UringSQEs = 0, 0
	return u, nil
}

func (u *uring) unmap() {
	for _, m := range [][]byte{u.sqMem, u.cqMem, u.sqeMem} {
		if m != nil {
			syscall.Munmap(m)
		}
	}
	u.sqMem, u.cqMem, u.sqeMem = nil, nil, nil
}

// getBuf returns an n-byte run buffer, recycled from a completed job
// when one is free. Store-goroutine only.
func (u *uring) getBuf(n int) []byte { return u.bufs.get(n) }

// submit queues one run on the ring. Per-slot ordering is the
// pool's rule verbatim: while an earlier in-flight write overlaps any
// of the run's slots, push the queue and reap completions until it no
// longer does. A full ring likewise waits out one completion. The SQE
// itself is only placed — io_uring_enter is deferred to the next
// barrier or forced wait, batching a checkpoint's runs into a handful
// of syscalls.
func (u *uring) submit(job wbJob) {
	if u.firstErr != nil {
		// Crash-loss semantics after a failure: the job is dropped
		// unwritten, counted, and reported at the barrier.
		u.dropped++
		u.bufs.put(job.buf)
		return
	}
	for u.overlaps(job.first, job.n) || uint32(len(u.ops)) >= u.depth {
		u.waitOne()
		if u.firstErr != nil {
			u.dropped++
			u.bufs.put(job.buf)
			return
		}
	}
	u.placeSQE(job)
}

// placeSQE writes one IORING_OP_WRITE entry into the submission queue
// and records the job as in flight. The job's buffer is referenced by
// u.ops until its CQE arrives: the kernel reads it asynchronously, and
// Go's non-moving heap keeps the address stable.
func (u *uring) placeSQE(job wbJob) {
	tok := u.nextTok
	u.nextTok++
	u.ops[tok] = job
	for i := 0; i < job.n; i++ {
		u.slots[job.first+int64(i)] = struct{}{}
	}
	tail := *u.sqTail // ours to write; the kernel only reads it
	idx := tail & u.sqMask
	sqe := u.sqeMem[int(idx)*sqeSize : (int(idx)+1)*sqeSize]
	clear(sqe)
	sqe[0] = opWrite
	binary.LittleEndian.PutUint32(sqe[4:8], uint32(u.fileFd))
	binary.LittleEndian.PutUint64(sqe[8:16], uint64(job.off))
	if len(job.buf) > 0 {
		binary.LittleEndian.PutUint64(sqe[16:24], uint64(uintptr(unsafe.Pointer(&job.buf[0]))))
	}
	binary.LittleEndian.PutUint32(sqe[24:28], uint32(len(job.buf)))
	binary.LittleEndian.PutUint64(sqe[32:40], tok)
	u.sqArray[idx] = idx
	// Publish: the kernel must observe the SQE contents before the new
	// tail. Go's atomics are sequentially consistent, which subsumes
	// the release ordering the ABI asks for.
	atomic.StoreUint32(u.sqTail, tail+1)
	u.queued++
	u.s.stats.UringSQEs++
}

// enter pushes every queued SQE to the kernel and, with minComplete >
// 0, blocks until that many completions are available. An enter
// failure is fatal for the ring's in-flight writes: they are recorded
// as the sticky error and forgotten, so ordering waits cannot hang on
// completions that will never arrive.
func (u *uring) enter(minComplete uint32) error {
	for {
		var flags uintptr
		if minComplete > 0 {
			flags = ioringEnterGetevents
		}
		n, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(u.ringFd),
			uintptr(u.queued), uintptr(minComplete), flags, 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			err := fmt.Errorf("iomodel: io_uring_enter: %w", errno)
			if u.firstErr == nil {
				u.firstErr = err
			}
			u.queued = 0
			clear(u.ops)
			clear(u.slots)
			return err
		}
		u.queued -= uint32(n)
		u.s.stats.UringEnters++
		return nil
	}
}

// reap consumes every available CQE: resolve the op, release its
// slots, complete short writes synchronously, record errors sticky,
// recycle the buffer.
func (u *uring) reap() {
	head := *u.cqHead // only this side writes the head
	tail := atomic.LoadUint32(u.cqTail)
	for ; head != tail; head++ {
		off := int(head&u.cqMask) * cqeSize
		cqe := u.cqMem[int(u.cqeOff)+off:]
		tok := binary.LittleEndian.Uint64(cqe[0:8])
		res := int32(binary.LittleEndian.Uint32(cqe[8:12]))
		job, ok := u.ops[tok]
		if !ok {
			continue // forgotten after an enter failure
		}
		delete(u.ops, tok)
		for i := 0; i < job.n; i++ {
			delete(u.slots, job.first+int64(i))
		}
		if res < 0 {
			if u.firstErr == nil {
				u.firstErr = fmt.Errorf("iomodel: write blocks %d..%d: %w",
					job.id0, job.id1, syscall.Errno(-res))
			}
		} else if int(res) < len(job.buf) {
			// Short write: finish the tail synchronously through the
			// BlockFile seam so the run lands whole before its slots are
			// considered settled.
			if _, err := u.s.f.WriteAt(job.buf[res:], job.off+int64(res)); err != nil && u.firstErr == nil {
				u.firstErr = fmt.Errorf("iomodel: write blocks %d..%d (short-write tail): %w",
					job.id0, job.id1, err)
			}
		}
		if job.buf != nil {
			u.bufs.put(job.buf)
		}
	}
	atomic.StoreUint32(u.cqHead, head)
}

// overlaps reports whether any slot of [first, first+n) has an
// in-flight write.
func (u *uring) overlaps(first int64, n int) bool {
	for i := 0; i < n; i++ {
		if _, busy := u.slots[first+int64(i)]; busy {
			return true
		}
	}
	return false
}

// waitOne pushes queued SQEs and blocks for at least one completion,
// then reaps everything available.
func (u *uring) waitOne() {
	if len(u.ops) == 0 {
		return
	}
	if u.enter(1) != nil {
		return
	}
	u.reap()
}

// waitSlot blocks until no in-flight write covers physical slot phys,
// so a following pread observes the completed write.
func (u *uring) waitSlot(phys int64) {
	for {
		if _, busy := u.slots[phys]; !busy {
			return
		}
		u.waitOne()
	}
}

// drain pushes and completes everything in flight — the flush barrier
// where batched submission actually happens — and returns the sticky
// first error, annotated with the number of runs dropped behind it.
func (u *uring) drain() error {
	for len(u.ops) > 0 {
		u.waitOne()
	}
	if u.firstErr != nil && u.dropped > 0 {
		return fmt.Errorf("%w (%d queued runs dropped after the failure)", u.firstErr, u.dropped)
	}
	return u.firstErr
}

// shutdown drains the ring and releases it. The target file stays
// open; the store owns it.
func (u *uring) shutdown() error {
	err := u.drain()
	u.unmap()
	syscall.Close(u.ringFd)
	return err
}

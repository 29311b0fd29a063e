package iomodel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// writeback is the asynchronous I/O submission engine behind a
// FileStore: a bounded pool of workers that issue the store's encoded
// flush runs as concurrent pwrites, keeping the device queue full
// instead of serializing every run behind the previous one's
// completion. The store remains single-threaded — encoding happens on
// the store's goroutine at submit time into a pool-owned buffer, so
// workers never touch frames — and the pool provides the two ordering
// guarantees the store's correctness needs:
//
//   - per-slot write ordering: submit blocks while an earlier write to
//     any of the run's physical slots is still in flight, so two writes
//     of the same slot can never land out of order;
//   - read-after-write: waitSlot blocks a pread of a slot until the
//     in-flight write covering it has completed.
//
// Errors are sticky and surface at the drain barrier (Fsync/Close),
// matching the store's crash-like loss semantics for failed writes.
// A store wrapped by a Crasher never uses a pool: crash injection
// counts write syscalls, so write order must stay deterministic.
type writeback struct {
	f    BlockFile
	jobs chan wbJob
	wg   sync.WaitGroup

	mu       sync.Mutex
	done     sync.Cond
	inflight map[int64]struct{} // physical slots with a queued or in-progress write
	pending  atomic.Int64       // submitted jobs not yet completed; changed under mu, read lock-free by waitSlot
	firstErr error              // first write failure, sticky
	dropped  int                // jobs discarded unwritten after the first failure
	bufs     [][]byte           // run-buffer free list, recycled across jobs
	bufBytes int                // capacity of each pooled buffer
	align    int                // buffer base alignment (0 = none; sector under O_DIRECT)
}

// wbJob is one submitted pwrite: an encoded run of n frames occupying
// adjacent physical slots [first, first+n), at byte offset off.
type wbJob struct {
	buf      []byte
	off      int64
	first    int64
	n        int
	id0, id1 BlockID // logical block range, for error messages
}

// newWriteback starts a pool of workers issuing writes against f.
// bufBytes is the buffer capacity per job (the store's run bound);
// align > 0 base-aligns every pooled buffer (O_DIRECT stores).
func newWriteback(f BlockFile, workers, bufBytes, align int) *writeback {
	w := &writeback{
		f:        f,
		jobs:     make(chan wbJob, 2*workers),
		inflight: make(map[int64]struct{}, 4*workers),
		bufBytes: bufBytes,
		align:    align,
	}
	w.done.L = &w.mu
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.run()
	}
	return w
}

// run is one worker: issue the pwrite, record the outcome, release the
// job's slots and buffer, and wake every waiter. Once a write has
// failed, jobs still queued behind it are dropped unwritten — the file
// stops changing at the first failure, exactly as in the crash the
// sticky error models, instead of acquiring whichever later runs
// happened to be queued on other workers — and the drop count joins
// the error at the drain barrier.
func (w *writeback) run() {
	defer w.wg.Done()
	for job := range w.jobs {
		w.mu.Lock()
		failed := w.firstErr != nil
		w.mu.Unlock()
		var err error
		if !failed {
			_, err = w.f.WriteAt(job.buf, job.off)
		}
		w.mu.Lock()
		if failed {
			w.dropped++
		}
		if err != nil && w.firstErr == nil {
			w.firstErr = fmt.Errorf("iomodel: write blocks %d..%d: %w", job.id0, job.id1, err)
		}
		for i := 0; i < job.n; i++ {
			delete(w.inflight, job.first+int64(i))
		}
		w.pending.Add(-1)
		w.bufs = append(w.bufs, job.buf[:0])
		w.done.Broadcast()
		w.mu.Unlock()
	}
}

// getBuf returns an n-byte run buffer, recycled from a completed job
// when one is free. Store-goroutine only.
func (w *writeback) getBuf(n int) []byte {
	w.mu.Lock()
	if k := len(w.bufs); k > 0 {
		buf := w.bufs[k-1]
		w.bufs = w.bufs[:k-1]
		w.mu.Unlock()
		return buf[:n]
	}
	w.mu.Unlock()
	return alignedBytes(n, w.bufBytes, w.align)
}

// submit queues one encoded run for writing. It blocks while an earlier
// in-flight write overlaps any of the run's slots (per-slot ordering),
// and while the job queue is full (backpressure). Store-goroutine only.
func (w *writeback) submit(job wbJob) {
	w.mu.Lock()
	for w.overlaps(job.first, job.n) {
		w.done.Wait()
	}
	for i := 0; i < job.n; i++ {
		w.inflight[job.first+int64(i)] = struct{}{}
	}
	w.pending.Add(1)
	w.mu.Unlock()
	w.jobs <- job
}

// overlaps reports whether any slot of [first, first+n) has an
// in-flight write. Callers hold w.mu.
func (w *writeback) overlaps(first int64, n int) bool {
	for i := 0; i < n; i++ {
		if _, busy := w.inflight[first+int64(i)]; busy {
			return true
		}
	}
	return false
}

// waitSlot blocks until no in-flight write covers physical slot phys,
// so a following pread observes the completed write. Store-goroutine
// only, like submit: every job this goroutine submitted is counted in
// pending until its pwrite has returned, so reading zero proves no
// write — to this slot or any other — is in flight, and the common
// case (every pool miss of a read-only workload) skips the lock.
func (w *writeback) waitSlot(phys int64) {
	if w.pending.Load() == 0 {
		return
	}
	w.mu.Lock()
	for {
		if _, busy := w.inflight[phys]; !busy {
			break
		}
		w.done.Wait()
	}
	w.mu.Unlock()
}

// drain blocks until every submitted write has completed and returns
// the sticky first error, annotated with the number of queued runs
// dropped unwritten behind it. This is the barrier Fsync and Close
// join asynchronous errors at.
func (w *writeback) drain() error {
	w.mu.Lock()
	for w.pending.Load() > 0 {
		w.done.Wait()
	}
	err := w.firstErr
	dropped := w.dropped
	w.mu.Unlock()
	if err != nil && dropped > 0 {
		return fmt.Errorf("%w (%d queued runs dropped after the failure)", err, dropped)
	}
	return err
}

// shutdown drains outstanding writes and stops the workers.
func (w *writeback) shutdown() error {
	err := w.drain()
	close(w.jobs)
	w.wg.Wait()
	return err
}

package iomodel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// writeback is the asynchronous I/O submission engine behind a
// FileStore: a bounded pool of workers that issue the store's flush
// runs as concurrent pwrites, keeping the device queue full instead of
// serializing every run behind the previous one's completion. It
// exists for fds on which a pwrite waits for the device (O_DIRECT; see
// FileStore.ConfigureSubmission for who gets one). The store remains
// single-threaded — the frames' sealed images are copied on the store's
// goroutine at submit time into a pool-owned buffer, so workers never
// touch frames — and the pool provides the two ordering guarantees the
// store's correctness needs:
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
	bufs     wbBufs             // submission buffers, recycled across jobs
}

// wbBufs recycles submission buffers, sized to the job: one-slot
// buffers (the steady state is single-frame eviction write-backs) on a
// list never longer than the jobs that can be in flight, and a few run
// buffers that grow to the run lengths actually seen instead of each
// being allocated at the run bound.
type wbBufs struct {
	slot      [][]byte // buffers of capacity slotBytes
	runs      [][]byte // larger buffers, at most maxPooledRuns kept
	slotBytes int
	align     int // buffer base alignment (0 = none; sector under O_DIRECT)
}

// maxPooledRuns bounds the run buffers a wbBufs keeps between jobs
// (each at most the store's maxRunBytes).
const maxPooledRuns = 4

// get returns an n-byte buffer, recycled when one of its class is
// free. A pooled run buffer shorter than n is dropped for one that
// fits, so the kept ones grow on demand.
func (p *wbBufs) get(n int) []byte {
	if n <= p.slotBytes {
		if k := len(p.slot); k > 0 {
			buf := p.slot[k-1]
			p.slot = p.slot[:k-1]
			return buf[:n]
		}
		return alignedBytes(n, p.slotBytes, p.align)
	}
	if k := len(p.runs); k > 0 {
		buf := p.runs[k-1]
		p.runs = p.runs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return alignedBytes(n, n, p.align)
}

// put takes back a buffer whose job has completed.
func (p *wbBufs) put(buf []byte) {
	if cap(buf) <= p.slotBytes {
		p.slot = append(p.slot, buf[:0])
	} else if len(p.runs) < maxPooledRuns {
		p.runs = append(p.runs, buf[:0])
	}
}

// wbJob is one submitted pwrite: the sealed images of n frames occupying
// adjacent physical slots [first, first+n), at byte offset off.
type wbJob struct {
	buf      []byte
	off      int64
	first    int64
	n        int
	id0, id1 BlockID // logical block range, for error messages
}

// newWriteback starts a pool of workers issuing writes against f.
// slotBytes is the store's slot stride (the size class of one-frame
// jobs); align > 0 base-aligns every pooled buffer (O_DIRECT stores).
func newWriteback(f BlockFile, workers, slotBytes, align int) *writeback {
	w := &writeback{
		f: f,
		// Two queued jobs per worker: a worker finishing a write finds
		// the next one waiting while the store prepares a third.
		jobs:     make(chan wbJob, 2*workers),
		inflight: make(map[int64]struct{}, 4*workers),
		bufs:     wbBufs{slotBytes: slotBytes, align: align},
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
		w.bufs.put(job.buf)
		w.done.Broadcast()
		w.mu.Unlock()
	}
}

// getBuf returns an n-byte run buffer, recycled from a completed job
// when one is free. Store-goroutine only.
func (w *writeback) getBuf(n int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bufs.get(n)
}

// submit queues one run for writing. It blocks while an earlier
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

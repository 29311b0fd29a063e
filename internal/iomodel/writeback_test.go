package iomodel

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillStore writes n fresh blocks of distinct content through st.
func fillStore(t *testing.T, st *FileStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := st.Alloc()
		st.WriteBlock(id, []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
	}
}

// verifyStore checks the n blocks written by fillStore.
func verifyStore(t *testing.T, st *FileStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got := st.ReadBlock(BlockID(i), nil)
		if len(got) != 1 || got[0].Key != uint64(i) || got[0].Val != uint64(i)*3 {
			t.Fatalf("block %d = %v, want [{%d %d}]", i, got, i, i*3)
		}
	}
}

// TestWritebackRoundTrip drives a store with an async pool through
// write/flush/evict/read cycles far past the pool capacity and checks
// every block's content — under -race this also exercises the
// worker/submitter/reader synchronization.
func TestWritebackRoundTrip(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wb.blocks")
			var st *FileStore
			var err error
			if durable {
				st, err = OpenFileStore(path, 4, 32, nil)
			} else {
				st, err = NewFileStore(path, 4, 32)
			}
			if err != nil {
				t.Fatal(err)
			}
			st.SetWritebackWorkers(4)
			const blocks = 400 // >> 32-frame pool: constant eviction traffic
			fillStore(t, st, blocks)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// Rewrite half the blocks, interleaved with reads of the other
			// half: reads must wait out in-flight writes to their slots.
			for i := 0; i < blocks; i += 2 {
				st.WriteBlock(BlockID(i), []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
				if got := st.ReadBlock(BlockID(blocks-1-i), nil); len(got) != 1 {
					t.Fatalf("read during writeback: block %d = %v", blocks-1-i, got)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			verifyStore(t, st, blocks)
			st2 := st.Stats()
			if st2.WriteSyscalls == 0 || st2.FlushedFrames < blocks {
				t.Fatalf("stats did not account async writes: %+v", st2)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWritebackBarrierJoinsErrors checks that an asynchronous write
// failure surfaces at the next Fsync barrier and sticks.
func TestWritebackBarrierJoinsErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wb.blocks")
	st, err := NewFileStore(path, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	st.SetWritebackWorkers(2)
	fillStore(t, st, 8)
	// Close the fd out from under the store: every subsequent pwrite
	// fails, modeling a dying device.
	st.f.Close()
	if err := st.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty reported synchronously, want deferral to the barrier: %v", err)
	}
	if err := st.Fsync(); err == nil {
		t.Fatal("Fsync acked despite failed async writes")
	}
	if st.Failed() == nil {
		t.Fatal("write failure did not stick")
	}
	if err := st.Fsync(); err == nil {
		t.Fatal("second Fsync acked after the first reported a failure")
	}
	st.Close()
}

// gateFile is a BlockFile stub whose first WriteAt blocks until the
// gate opens and then fails; it counts every write attempt. It lets a
// test pile jobs up behind a failing one deterministically.
type gateFile struct {
	gate     chan struct{}
	mu       sync.Mutex
	attempts int
}

func (g *gateFile) WriteAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.attempts++
	first := g.attempts == 1
	g.mu.Unlock()
	if first {
		<-g.gate
		return 0, errors.New("injected device failure")
	}
	return len(p), nil
}

func (g *gateFile) writeAttempts() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempts
}

func (g *gateFile) ReadAt(p []byte, off int64) (int, error) { return 0, io.EOF }
func (g *gateFile) Write(p []byte) (int, error)             { return len(p), nil }
func (g *gateFile) Sync() error                             { return nil }
func (g *gateFile) Close() error                            { return nil }
func (g *gateFile) Truncate(int64) error                    { return nil }
func (g *gateFile) Name() string                            { return "gate" }

// TestWritebackDrainDropsQueuedAfterFailure covers a worker failing
// mid-barrier with jobs still queued behind it: the queued jobs must
// be dropped unwritten (the file stops changing at the first failure,
// matching the synchronous path's crash-loss semantics), and drain
// must join the drop count onto the sticky error instead of
// deadlocking or silently writing past the failure.
func TestWritebackDrainDropsQueuedAfterFailure(t *testing.T) {
	g := &gateFile{gate: make(chan struct{})}
	w := newWriteback(g, 1, 4096, 0)
	defer func() {
		// shutdown re-reports the sticky error; the pool must still wind
		// down cleanly after a failure.
		if err := w.shutdown(); err == nil {
			t.Error("shutdown lost the sticky error")
		}
	}()

	// Job A: the single worker picks it up and blocks inside WriteAt.
	// Jobs B and C queue behind it (channel capacity 2*workers = 2).
	for i := 0; i < 3; i++ {
		buf := w.getBuf(64)
		w.submit(wbJob{buf: buf, off: int64(i) * 64, first: int64(i), n: 1, id0: BlockID(i), id1: BlockID(i)})
	}
	close(g.gate) // A fails now; B and C are still queued

	err := w.drain()
	if err == nil {
		t.Fatal("drain acked a barrier with a failed write")
	}
	if !strings.Contains(err.Error(), "2 queued runs dropped") {
		t.Fatalf("drain error does not join the dropped jobs: %v", err)
	}
	if got := g.writeAttempts(); got != 1 {
		t.Fatalf("%d writes reached the file, want 1: queued jobs must not write after a failure", got)
	}
	// The pool must be fully settled: no inflight slots, buffers
	// recycled.
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.inflight) != 0 || w.pending.Load() != 0 {
		t.Fatalf("pool not settled after drain: inflight=%d pending=%d", len(w.inflight), w.pending.Load())
	}
	if len(w.bufs.slot) != 3 {
		t.Fatalf("buffers not recycled: %d pooled, want 3", len(w.bufs.slot))
	}
}

// heldFile is a BlockFile stub whose WriteAt announces itself on entered
// and then blocks until release is closed.
type heldFile struct {
	gateFile
	entered chan struct{}
	release chan struct{}
	wrote   atomic.Bool
}

func (h *heldFile) WriteAt(p []byte, off int64) (int, error) {
	h.entered <- struct{}{}
	<-h.release
	h.wrote.Store(true)
	return len(p), nil
}

// TestWritebackWaitSlotAfterSubmit pins the read-after-write guarantee
// across waitSlot's lock-free fast path: with nothing in flight it
// returns at once, but a read of a slot issued after that slot's submit
// waits until the pwrite has returned — while reads of other slots go
// through — and the fast path comes back once the pool has drained.
func TestWritebackWaitSlotAfterSubmit(t *testing.T) {
	f := &heldFile{entered: make(chan struct{}), release: make(chan struct{})}
	w := newWriteback(f, 1, 4096, 0)
	w.waitSlot(7) // idle pool: must not block

	w.submit(wbJob{buf: w.getBuf(64), off: 7 * 64, first: 7, n: 1, id0: 7, id1: 7})
	<-f.entered   // the worker is inside WriteAt
	w.waitSlot(8) // another slot: not ordered behind slot 7's write
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		w.waitSlot(7)
		if !f.wrote.Load() {
			t.Error("waitSlot returned before the covering write completed")
		}
	}()
	select {
	case <-returned:
		t.Fatal("waitSlot did not wait for the in-flight write to its slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(f.release)
	<-returned
	if err := w.drain(); err != nil {
		t.Fatal(err)
	}
	if n := w.pending.Load(); n != 0 {
		t.Fatalf("pending = %d after drain", n)
	}
	w.waitSlot(7)
	if err := w.shutdown(); err != nil {
		t.Fatal(err)
	}
}

// sinkFile is a BlockFile stub that accepts every write.
type sinkFile struct{ gateFile }

func (*sinkFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }

// TestWritebackBuffersSizedToJob: a pool that only ever sees one-frame
// jobs holds a few slot-sized buffers, not a run bound's worth per job;
// run buffers are sized to the runs seen and capped in number.
func TestWritebackBuffersSizedToJob(t *testing.T) {
	const slot = 1032 // b = 64 under the packed layout
	w := newWriteback(&sinkFile{}, 4, slot, 0)
	pooled := func() (n int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, b := range w.bufs.slot {
			n += cap(b)
		}
		for _, b := range w.bufs.runs {
			n += cap(b)
		}
		return n
	}
	for i := 0; i < 10000; i++ {
		w.submit(wbJob{buf: w.getBuf(slot), off: int64(i%512) * slot, first: int64(i % 512), n: 1})
	}
	if err := w.drain(); err != nil {
		t.Fatal(err)
	}
	if got := pooled(); got > 64<<10 {
		t.Fatalf("10k single-frame submits left %d bytes of pooled buffers, want <= 64 KiB", got)
	}
	// Runs: every length from 2 to 40 slots, each job in its own slot range.
	for n := 2; n <= 40; n++ {
		first := int64(n * 64)
		w.submit(wbJob{buf: w.getBuf(n * slot), off: first * slot, first: first, n: n})
	}
	if err := w.drain(); err != nil {
		t.Fatal(err)
	}
	if k := len(w.bufs.runs); k == 0 || k > maxPooledRuns {
		t.Fatalf("%d run buffers pooled, want 1..%d", k, maxPooledRuns)
	}
	if got := pooled(); got > 64<<10+maxPooledRuns*40*slot {
		t.Fatalf("pooled buffers hold %d bytes after runs of at most 40 slots", got)
	}
	if buf := w.getBuf(64 * slot); len(buf) != 64*slot {
		t.Fatalf("run buffer did not grow on demand: len %d", len(buf))
	}
	if err := w.shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackCrasherStaysSynchronous checks that a crash-injected
// store refuses the pool: the crash matrix counts write syscalls, so
// submission order must stay deterministic.
func TestWritebackCrasherStaysSynchronous(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wb.blocks")
	st, err := OpenFileStore(path, 4, 16, NewCrasher(CrashPlan{FailAfterWrites: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetWritebackWorkers(8)
	if st.wb != nil {
		t.Fatal("crash-injected store accepted an async writeback pool")
	}
}

// TestFsyncElided asserts the one-fsync-per-fd-per-barrier dedupe: a
// barrier with nothing written since the last fsync skips the syscall
// and counts the elision.
func TestFsyncElided(t *testing.T) {
	st, err := NewTempFileStore(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 4)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	base := st.Stats()
	if base.Fsyncs != 1 || base.FsyncsElided != 0 {
		t.Fatalf("first barrier: Fsyncs=%d FsyncsElided=%d, want 1/0", base.Fsyncs, base.FsyncsElided)
	}
	// Nothing written since: the second and third barrier fsyncs are
	// deduped away.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Fsync(); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.Fsyncs != 1 || got.FsyncsElided != 2 {
		t.Fatalf("idle barriers: Fsyncs=%d FsyncsElided=%d, want 1/2", got.Fsyncs, got.FsyncsElided)
	}
	// New bytes re-arm the fsync.
	st.WriteBlock(0, []Entry{{Key: 9, Val: 9}})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	got = st.Stats()
	if got.Fsyncs != 2 {
		t.Fatalf("dirty barrier: Fsyncs=%d, want 2", got.Fsyncs)
	}
}

// TestDeviceProfiles checks the fio-style presets: lookup, unknown
// names, and that sequential access is priced below seek-heavy access.
func TestDeviceProfiles(t *testing.T) {
	for _, name := range DeviceProfileNames() {
		cfg, err := DeviceProfile(name)
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if cfg.Seek <= 0 || cfg.Transfer <= 0 || cfg.SeqTransfer <= 0 || cfg.QueueDepth <= 0 {
			t.Fatalf("profile %s is not fully specified: %+v", name, cfg)
		}
		if cfg.SeqTransfer > cfg.Seek+cfg.Transfer {
			t.Fatalf("profile %s prices sequential above random: %+v", name, cfg)
		}
	}
	if _, err := DeviceProfile("floppy"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestDeviceProfileIO checks the kernel-bypass pricing of the presets:
// the direct modes shave software overhead off the transfer rates but
// never the device's seek, and uring deepens the absorbed queue.
func TestDeviceProfileIO(t *testing.T) {
	for _, name := range DeviceProfileNames() {
		base, _ := DeviceProfile(name)
		for _, mode := range []string{"", IOModeBuffered} {
			got, err := DeviceProfileIO(name, mode)
			if err != nil || got != base {
				t.Fatalf("%s/%q: %+v, %v; want the unchanged preset", name, mode, got, err)
			}
		}
		od, err := DeviceProfileIO(name, IOModeODirect)
		if err != nil {
			t.Fatal(err)
		}
		if od.Seek != base.Seek || od.Transfer >= base.Transfer || od.Transfer <= 0 ||
			od.SeqTransfer > base.SeqTransfer || od.SeqTransfer <= 0 || od.QueueDepth != base.QueueDepth {
			t.Fatalf("%s/odirect mispriced: base %+v, got %+v", name, base, od)
		}
		ur, err := DeviceProfileIO(name, IOModeUring)
		if err != nil {
			t.Fatal(err)
		}
		if ur.Transfer != od.Transfer || ur.QueueDepth != 2*base.QueueDepth {
			t.Fatalf("%s/uring mispriced: odirect %+v, got %+v", name, od, ur)
		}
	}
	if _, err := DeviceProfileIO("nvme", "dax"); err == nil {
		t.Fatal("unknown io mode accepted")
	}
}

// TestLatencyStoreSequentialPricing checks that adjacent-block access
// hits the sequential rate and is counted.
func TestLatencyStoreSequentialPricing(t *testing.T) {
	ls := NewLatencyStore(NewMemStore(4), LatencyConfig{
		Seek: 2 * time.Millisecond, Transfer: time.Millisecond,
		SeqTransfer: 10 * time.Microsecond, QueueDepth: 2,
	})
	d := NewDiskOn(ls)
	ids := make([]BlockID, 8)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	for _, id := range ids {
		d.Write(id, []Entry{{Key: uint64(id)}})
	}
	seq := ls.SeqOps()
	if seq < int64(len(ids)-1) {
		t.Fatalf("sequential writes priced sequentially: SeqOps=%d, want >= %d", seq, len(ids)-1)
	}
	// A strided pass breaks adjacency: no new sequential ops.
	for i := len(ids) - 1; i >= 0; i -= 2 {
		d.Read(ids[i], nil)
	}
	if got := ls.SeqOps(); got != seq {
		t.Fatalf("strided reads counted as sequential: SeqOps=%d, want %d", got, seq)
	}
	if ls.Waited() == 0 || ls.DelayedOps() == 0 {
		t.Fatal("latency store injected no delay")
	}
}

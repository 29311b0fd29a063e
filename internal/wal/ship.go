// ShipLog is the replication half of the package: a server-level
// append-only log of logical operations, written by the node that
// executes mutations and read concurrently by any number of cursors —
// the replication sources streaming its contents to followers. It
// reuses the WAL's 21-byte CRC-framed record format (the LSN is mixed
// into each record's CRC without being stored, tying records to their
// positions) under a distinct magic, but differs from Log in lifecycle:
// appends write through to the file immediately (so cursors can read
// them), a subscribe-style notification channel lets tail readers block
// until new records land instead of polling, and the only truncation is
// TruncateBefore — dropping a durable prefix, never the tail.
//
// Concurrency contract: Append may be called from many goroutines (it
// serializes internally and publishes records atomically),
// Read/NextLSN/StartLSN and the notification channel are safe from any
// goroutine, cursors use pread so they never disturb the append
// position, and TruncateBefore may run concurrently with all of them.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

const shipMagic = 0x4c535845 // "EXSL"

// ErrShipCorrupt is returned by ShipLog.Read when a record below the
// committed size fails its CRC — on-disk corruption, not a torn tail
// (torn tails are healed at open).
var ErrShipCorrupt = errors.New("wal: ship log corrupt record")

// ShipLog is an open replication log. See the package comment above
// for the concurrency contract.
type ShipLog struct {
	f    *os.File
	path string

	mu       sync.Mutex    // serializes appends, truncation and notify rotation
	notify   chan struct{} // closed and replaced by the first append after Changed handed it out
	watched  bool          // Changed has handed notify out since it was made
	prealloc int64         // file extent reserved ahead of size

	size  atomic.Int64  // committed bytes (header + records)
	next  atomic.Uint64 // LSN of the next append
	start atomic.Uint64 // LSN of the first record in the file

	// readMu fences cursors against TruncateBefore's file swap: Read
	// holds the read side across its offset computation and pread, so a
	// (start, f) pair is always consistent. Deriving the start LSN from
	// size arithmetic instead would be racy — Append publishes size and
	// next as two separate stores.
	readMu sync.RWMutex

	fsyncMu sync.Mutex
	dirty   atomic.Bool // bytes written since the last fsync

	appendBuf []byte    // reused encode buffer, guarded by mu
	readBufs  sync.Pool // *[]byte: Read's raw-record buffers
}

// OpenShip opens (creating if absent) the ship log at path and scans
// the existing records, discarding a torn tail. A fresh (or
// torn-header) log starts at firstLSN; an existing one resumes at its
// recovered position, and firstLSN is ignored.
func OpenShip(path string, firstLSN uint64) (*ShipLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: ship open: %w", err)
	}
	s := &ShipLog{f: f, path: path, notify: make(chan struct{})}
	if err := s.recoverShip(firstLSN); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recoverShip scans the file like Log.recover: parse or (re)write the
// header, walk the valid prefix, and cut the file behind it.
func (s *ShipLog) recoverShip(firstLSN uint64) error {
	first, ok, err := readHeader(s.f, shipMagic)
	if err != nil {
		return fmt.Errorf("wal: ship read header: %w", err)
	}
	if !ok {
		// Empty file, or a header torn by a crash before any record
		// could exist behind it: start fresh at firstLSN.
		return s.resetShip(firstLSN)
	}
	next, err := scan(s.f, first, nil)
	if err != nil {
		return fmt.Errorf("wal: ship scan: %w", err)
	}
	size := headerBytes + int64(next-first)*recordBytes
	if info, err := s.f.Stat(); err == nil && info.Size() > size {
		if err := s.f.Truncate(size); err != nil {
			return fmt.Errorf("wal: ship trim recovered log: %w", err)
		}
	}
	s.start.Store(first)
	s.next.Store(next)
	s.size.Store(size)
	s.prealloc = size
	return nil
}

// resetShip truncates the file and writes a fresh header at firstLSN.
func (s *ShipLog) resetShip(firstLSN uint64) error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: ship truncate: %w", err)
	}
	var hdr [headerBytes]byte
	putHeader(hdr[:], shipMagic, firstLSN)
	if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: ship write header: %w", err)
	}
	s.next.Store(firstLSN)
	s.start.Store(firstLSN)
	s.size.Store(headerBytes)
	s.prealloc = headerBytes
	s.dirty.Store(true)
	return nil
}

// NextLSN returns the LSN the next appended record will receive; every
// LSN below it (and at or above StartLSN) is committed and readable.
func (s *ShipLog) NextLSN() uint64 { return s.next.Load() }

// StartLSN returns the LSN of the oldest record still in the log (equal
// to NextLSN when the log is empty). Reads below it fail: a subscriber
// that far behind must re-seed from a checkpoint.
func (s *ShipLog) StartLSN() uint64 { return s.start.Load() }

// Changed returns a channel that is closed once records are appended
// after this call. The standard tail-follow loop is: read; if nothing
// new, grab Changed(), re-check NextLSN (an append may have raced the
// grab), then select on the channel. Taking the channel is what makes
// the next append rotate it: a log nobody is waiting on appends without
// allocating one.
func (s *ShipLog) Changed() <-chan struct{} {
	s.mu.Lock()
	ch := s.notify
	s.watched = true
	s.mu.Unlock()
	return ch
}

// Append writes one record per key with the given op (vals may be nil,
// meaning zero values — deletes), assigns consecutive LSNs, and
// publishes them to readers before returning. It returns the LSN of
// the first record; the batch occupies [first, first+len(keys)). The
// records are readable immediately but durable only after Fsync.
func (s *ShipLog) Append(op Op, keys, vals []uint64) (uint64, error) {
	if len(keys) == 0 {
		return s.next.Load(), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.next.Load()
	buf := s.appendBuf[:0]
	lsn := first
	for i, k := range keys {
		var v uint64
		if vals != nil {
			v = vals[i]
		}
		buf = appendRecord(buf, op, k, v, lsn)
		lsn++
	}
	s.appendBuf = buf
	size := s.size.Load()
	if need := size + int64(len(buf)); need > s.prealloc {
		// The log is never recycled, so every block is taken here once.
		p, err := extend(s.f, s.prealloc, need, 1)
		s.dirty.Store(true)
		if err != nil {
			return 0, fmt.Errorf("wal: ship preallocate: %w", err)
		}
		s.prealloc = p
	}
	if _, err := s.f.WriteAt(buf, size); err != nil {
		return 0, fmt.Errorf("wal: ship append: %w", err)
	}
	s.dirty.Store(true)
	// Publish: size first (readers gate on it), then the LSN, then wake
	// tail followers by rotating the notification channel, if any took it.
	s.size.Store(size + int64(len(buf)))
	s.next.Store(lsn)
	if s.watched {
		close(s.notify)
		s.notify = make(chan struct{})
		s.watched = false
	}
	return first, nil
}

// Fsync makes previously appended records durable. Safe concurrently
// with Append; a barrier that raced no appends elides the syscall.
func (s *ShipLog) Fsync() error {
	s.fsyncMu.Lock()
	defer s.fsyncMu.Unlock()
	if !s.dirty.Swap(false) {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.dirty.Store(true)
		return fmt.Errorf("wal: ship fsync: %w", err)
	}
	return nil
}

// Read fills recs with committed records starting at LSN from,
// returning how many it read — 0 when from is at (or past) the tail.
// Records below the committed size always validate; a CRC failure is
// reported as ErrShipCorrupt.
func (s *ShipLog) Read(from uint64, recs []Record) (int, error) {
	// The read lock pins (start, f) as a consistent pair against
	// TruncateBefore's file swap. next is loaded inside it too: a record
	// below next is fully written before next is published, so offsets
	// computed from (start, next) always land on committed bytes.
	s.readMu.RLock()
	defer s.readMu.RUnlock()
	next := s.next.Load()
	if from >= next || len(recs) == 0 {
		return 0, nil
	}
	first := s.start.Load()
	if from < first {
		return 0, fmt.Errorf("wal: ship read below log start (lsn %d < %d)", from, first)
	}
	avail := int(next - from)
	if avail > len(recs) {
		avail = len(recs)
	}
	off := headerBytes + int64(from-first)*recordBytes
	// The raw bytes live only for this call, so concurrent cursors share
	// a pool of read buffers instead of allocating one per call.
	bp, _ := s.readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer s.readBufs.Put(bp)
	if cap(*bp) < avail*recordBytes {
		*bp = make([]byte, avail*recordBytes)
	}
	buf := (*bp)[:avail*recordBytes]
	// Everything below next is committed, so a short read is an error
	// (ReadAt reports one whenever it returns fewer bytes than asked).
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return 0, fmt.Errorf("wal: ship read: %w", err)
	}
	for i := 0; i < avail; i++ {
		rec := buf[i*recordBytes : (i+1)*recordBytes]
		lsn := from + uint64(i)
		if !validate(rec, lsn) {
			return 0, fmt.Errorf("%w at lsn %d", ErrShipCorrupt, lsn)
		}
		recs[i] = decodeRecord(rec, lsn)
	}
	return avail, nil
}

// TruncateBefore drops every record below lsn, bounding the log's disk
// footprint: the caller asserts those records are covered by a durable
// engine checkpoint, so no subscriber may ever need them again (a
// subscriber reading below the new start gets an error and must re-seed
// from a checkpoint). lsn is clamped to [StartLSN, NextLSN]; a no-op
// call (lsn at or below the current start) is free.
//
// The retained suffix is copied into a temp file with a fresh header
// (firstLSN = lsn), fsynced and renamed over the log, then the open fd
// is swapped under the cursors' read lock — in-flight Reads finish on
// the old fd (still valid data, the rename only unlinks the name) and
// later ones see the new (start, f) pair. Record CRCs mix in the LSN,
// not the file offset, so retained records stay valid at their new
// positions. Lock order: mu (excludes appends), then fsyncMu (excludes
// a racing Fsync syncing a closed fd), then readMu.
func (s *ShipLog) TruncateBefore(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.start.Load()
	next := s.next.Load()
	if lsn <= start {
		return nil
	}
	if lsn > next {
		lsn = next
	}
	retained := s.size.Load() - headerBytes - int64(lsn-start)*recordBytes
	tmpPath := s.path + ".trunc"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: ship truncate open: %w", err)
	}
	var hdr [headerBytes]byte
	putHeader(hdr[:], shipMagic, lsn)
	// Write (not WriteAt): the copy below appends at the file offset.
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: ship truncate header: %w", err)
	}
	src := io.NewSectionReader(s.f, headerBytes+int64(lsn-start)*recordBytes, retained)
	if _, err := io.Copy(tmp, src); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: ship truncate copy: %w", err)
	}
	// The new file starts with its reserve, synced with the copy.
	prealloc, err := extend(tmp, headerBytes+retained, headerBytes+retained, 1)
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: ship truncate preallocate: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: ship truncate sync: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: ship truncate rename: %w", err)
	}
	s.fsyncMu.Lock()
	s.readMu.Lock()
	old := s.f
	s.f = tmp
	s.start.Store(lsn)
	s.size.Store(headerBytes + retained)
	s.prealloc = prealloc
	s.readMu.Unlock()
	s.fsyncMu.Unlock()
	// A crash between the rename above and the next directory sync may
	// resurrect the old name; recovery then just sees the longer log —
	// same records, earlier start — which is safe. dirty is left as-is:
	// the copied suffix is already synced.
	return old.Close()
}

// Close trims the preallocated tail and closes the file. Readers must
// be stopped first.
func (s *ShipLog) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.size.Load()
	if s.prealloc > size {
		if err := s.f.Truncate(size); err == nil {
			s.prealloc = size
		}
	}
	return s.f.Close()
}

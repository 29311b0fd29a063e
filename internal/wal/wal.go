// Package wal implements the per-table redo log of the durability
// subsystem: a flat file of logical operation records (insert/upsert/
// delete/expire with key and value) appended right after the table's
// buffer absorbs each operation, fsynced at every barrier and before any
// checkpoint that depends on them commits, and recycled once a
// checkpoint has made the logged state durable: Reset rewrites the
// header in place and the next epoch overwrites the blocks the file
// already owns (DESIGN.md §1b, "Apply, then log" and "Log lifecycle").
//
// Recovery contract (see DESIGN.md, "Durability & recovery"): on open
// the log is scanned, each record validated by its CRC, and the valid
// prefix returned for replay. Records carry log sequence numbers (LSNs)
// so a replayer can skip operations a checkpoint already contains — the
// window between a checkpoint commit and the Reset that follows it. A
// torn append (a crash mid-record) fails the CRC of the
// final record and cleanly ends the scan: a half-written operation is
// never replayed, so no operation half-applies.
//
// On-disk format, all little-endian:
//
//	header  [4 magic "EXWL"] [4 version] [8 firstLSN] [4 crc32(prev 16)]
//	record  [1 op] [8 key] [8 val] [4 crc32(op|key|val|lsn)]
//
// The LSN of record i is firstLSN + i; including it in the record CRC
// (without storing it) ties each record to its position, so stale bytes
// from a previous log generation can never validate: Reset only keeps
// the file's extent when the new firstLSN is above the old one, so an
// older generation's record at position i was summed with a different
// LSN than the firstLSN + i it is now checked against.
//
// Both logs take extent from the filesystem in reserveChunk steps of
// written zeros (extend), never as a sparse tail: a commit's fsync then
// flushes data into blocks the file owns instead of allocating them.
//
// A log written under the O_DIRECT tier that PR 25 deleted has its
// records zero-padded to a sector boundary. Zeros fail every record
// CRC, so the scan ends there as it ends at reserved extent, and the
// next spill overwrites the pad: such a log needs no path of its own.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"extbuf/internal/iomodel"
)

// Op is a logged logical operation.
type Op uint8

// Logged operation kinds. OpExpire reuses the record frame with the
// value field carrying the expiry deadline (unix milliseconds); it sets
// a key's TTL without changing its value.
const (
	OpInsert Op = 1
	OpUpsert Op = 2
	OpDelete Op = 3
	OpExpire Op = 4
)

// Record is one recovered log entry.
type Record struct {
	LSN      uint64
	Op       Op
	Key, Val uint64
}

const (
	magic       = 0x4c575845 // "EXWL"
	version     = 1
	headerBytes = 20
	recordBytes = 21
)

// spillChunk is the append buffer's spill granularity: once the buffer
// holds at least this much, whole multiples of it are written to the
// file in one WriteAt. 64 KiB batches ~3120 records per syscall (the
// old 4096-byte threshold issued one small pwrite per ~195 records
// under batch load) and matches the write sizes storage stacks like.
const spillChunk = 64 << 10

// reserveChunk is the step in which a log takes extent from the
// filesystem, and the granularity to which Reset shrinks a recycled
// file: large enough that a commit wave's fsync almost never meets an
// unallocated block, small enough that an idle log pins 1 MiB.
const reserveChunk = 1 << 20

// zeros is what extend writes. It is never modified.
var zeros = make([]byte, reserveChunk)

// errCorruptHeader marks an existing log file whose header fails
// validation. Within the crash model this only happens when a crash
// tore the header write itself, and the protocol writes headers only at
// points with zero live records (fresh creation, post-checkpoint
// recycling) — so Open heals the log by resetting it rather than
// failing recovery.
var errCorruptHeader = errors.New("wal: corrupt log header")

// Log is an open write-ahead log. Appends are buffered in memory;
// Sync flushes and fsyncs them — an operation is durable only after
// the Sync that follows its Append returns nil. Not safe for concurrent
// use; the owning table serializes access — with one exception, the ack
// barrier: a goroutine other than the owner may Spill and then
// FsyncDetached while the owner goes on appending. Both sides then hold
// the log's append lock (Lock) around their buffer steps: the owner
// across a call's Appends and across a checkpoint's Spill and Reset,
// the barrier across its Spill only, never across the fsync. That is
// what lets an ack barrier run on its caller while the shard worker
// keeps applying.
type Log struct {
	mu       sync.Mutex // the append lock: buf, size, prealloc, failed and the file's tail
	f        iomodel.BlockFile
	buf      []byte
	first    uint64       // firstLSN of the header on disk: this generation's
	next     uint64       // LSN of the next append
	size     int64        // bytes written to the file (header + records)
	prealloc int64        // file extent: behind size, reserved zeros or stale generations
	spills   atomic.Int64 // spill WriteAt syscalls issued
	failed   error        // sticky first write failure

	// The fsync half, shared with detached fsyncs. fsMu is held across
	// the syscall, so a barrier arriving while another fsync is in
	// flight waits for it and only then reads dirty: the one-fsync-per-fd
	// elision is always against a COMPLETED fsync. Whoever writes sets
	// dirty after the write returns — never before — so a racing fsync
	// can leave the flag spuriously set (one extra fsync), never clear
	// with unsynced bytes behind it.
	fsMu   sync.Mutex
	dirty  atomic.Bool  // bytes written (spill/truncate/header) since the last fsync
	syncs  atomic.Int64 // fsyncs issued (Fsync/Sync)
	elided atomic.Int64 // barrier fsyncs skipped: nothing written since the last
}

// Open opens (creating if absent) the log at path, scanning any
// existing records. It returns the log positioned to append after the
// valid prefix, and that prefix for replay. A non-nil crasher
// interposes fault injection on the file. A torn trailing record is
// discarded, and a missing or torn header resets the log to start at
// firstLSN — the LSN after the owning checkpoint's last absorbed
// operation, so healed logs stay aligned with the LSN filter. So does a
// log whose valid prefix ends below firstLSN: the checkpoint absorbed
// every record in it, and appending behind them would hand out LSNs the
// replay filter skips.
func Open(path string, crasher *iomodel.Crasher, firstLSN uint64) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	var bf iomodel.BlockFile = f
	if crasher != nil {
		bf = crasher.WrapFile(bf)
	}
	l := &Log{f: bf}
	recs, err := l.recover()
	if errors.Is(err, errCorruptHeader) || err == nil && l.next < firstLSN {
		// An empty file; a header torn by a crash, with no live records
		// behind it (headers are only written at points with none); or a
		// crash inside Reset that left the old header over a partly
		// overwritten old generation. The file may hold records of the
		// very generation about to start, so nothing of it is kept.
		recs, err = nil, l.reset(firstLSN, false)
	}
	if err != nil {
		bf.Close()
		return nil, nil, err
	}
	return l, recs, nil
}

// recover scans the file: parse the header, then validate records until
// the first CRC failure or short read, and cut the file there — whatever
// lies behind the valid prefix (reserve, a stale generation, records a
// crash persisted out of order) is dropped, so everything a later scan
// can meet past the records of this run was written by this run.
func (l *Log) recover() ([]Record, error) {
	if info, err := os.Stat(l.f.Name()); err == nil {
		l.prealloc = info.Size()
	}
	first, ok, err := readHeader(l.f, magic)
	if err != nil {
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", errCorruptHeader, l.f.Name())
	}
	var recs []Record
	l.first = first
	if l.next, err = scan(l.f, first, &recs); err != nil {
		return nil, fmt.Errorf("wal: read record: %w", err)
	}
	l.size = headerBytes + int64(len(recs))*recordBytes
	if err := l.cutTo(l.size); err != nil {
		return nil, err
	}
	l.prealloc = l.size
	return recs, nil
}

// putHeader encodes a log header into hdr[:headerBytes].
func putHeader(hdr []byte, magic uint32, firstLSN uint64) {
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
}

// readHeader reads and validates the header of a log with the given
// magic. ok is false for an empty, short or torn header.
func readHeader(r io.ReaderAt, magic uint32) (firstLSN uint64, ok bool, err error) {
	var hdr [headerBytes]byte
	n, err := r.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return 0, false, err
	}
	ok = n == headerBytes &&
		binary.LittleEndian.Uint32(hdr[0:4]) == magic &&
		binary.LittleEndian.Uint32(hdr[4:8]) == version &&
		binary.LittleEndian.Uint32(hdr[16:20]) == crc32.ChecksumIEEE(hdr[:16])
	return binary.LittleEndian.Uint64(hdr[8:16]), ok, nil
}

// scan is the recovery walk of both logs: it reads the records behind
// r's header in spillChunk reads, checks each against the next LSN from
// lsn up, and stops at the first that fails — a torn append, reserved
// zeros and a stale generation's record are all the same to the
// positional CRC, and as cheap to stop at as the end of the file. The
// valid records are appended to *dst when dst is non-nil; the LSN after
// the last one is returned.
func scan(r io.ReaderAt, lsn uint64, dst *[]Record) (uint64, error) {
	buf := make([]byte, spillChunk)
	for off := int64(headerBytes); ; {
		n, err := r.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return lsn, err
		}
		valid := 0
		for ; valid+recordBytes <= n && validate(buf[valid:valid+recordBytes], lsn); valid += recordBytes {
			if dst != nil {
				*dst = append(*dst, decodeRecord(buf[valid:], lsn))
			}
			lsn++
		}
		if valid+recordBytes <= n || n < len(buf) {
			return lsn, nil // an invalid record, or the end of the file
		}
		off += int64(valid)
	}
}

// decodeRecord reads the record frame at rec[:recordBytes], whose CRC
// the caller has validated against lsn.
func decodeRecord(rec []byte, lsn uint64) Record {
	return Record{
		LSN: lsn,
		Op:  Op(rec[0]),
		Key: binary.LittleEndian.Uint64(rec[1:9]),
		Val: binary.LittleEndian.Uint64(rec[9:17]),
	}
}

// recordCRC is the checksum of a record's 17 payload bytes (op, key,
// val) followed by its position LSN, little-endian — the LSN is mixed
// in without being stored. It allocates nothing: hash/crc32 reaches its
// implementation through a function variable, so every slice handed to
// it is forced to the heap. The payload therefore has to be checksummed
// where it already lives (a log buffer, a read buffer), and the eight
// LSN bytes, which live nowhere, are folded in with the table directly.
func recordCRC(rec []byte, lsn uint64) uint32 {
	crc := ^crc32.ChecksumIEEE(rec[:17])
	for i := 0; i < 8; i++ {
		crc = crc32.IEEETable[byte(crc)^byte(lsn)] ^ crc>>8
		lsn >>= 8
	}
	return ^crc
}

// appendRecord encodes one record frame for position lsn onto buf.
func appendRecord(buf []byte, op Op, key, val, lsn uint64) []byte {
	n := len(buf)
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = binary.LittleEndian.AppendUint64(buf, val)
	return binary.LittleEndian.AppendUint32(buf, recordCRC(buf[n:], lsn))
}

// validate checks a record's CRC against its position LSN.
func validate(rec []byte, lsn uint64) bool {
	return binary.LittleEndian.Uint32(rec[17:21]) == recordCRC(rec, lsn)
}

// Lock takes the log's append lock, which a log shared with an ack
// barrier on another goroutine needs around every buffer step (see Log).
// It orders before the fsync half's own mutex: no fsync holds or waits
// for it.
func (l *Log) Lock() { l.mu.Lock() }

// Unlock releases the append lock.
func (l *Log) Unlock() { l.mu.Unlock() }

// NextLSN returns the LSN the next Append will receive.
func (l *Log) NextLSN() uint64 { return l.next }

// Append logs one operation and returns its LSN. The record is
// buffered; it is durable only after the next successful Sync. A failed
// write is sticky: every later Append, spill and barrier returns it.
func (l *Log) Append(op Op, key, val uint64) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	// Bound the append buffer: spill whole 64 KiB chunks to the file
	// (without fsync) before admitting the next record. Partial spills
	// are safe — each record carries its own CRC, so a crash tears at
	// most the last record.
	if len(l.buf) >= spillChunk {
		if err := l.spillN(len(l.buf) / spillChunk * spillChunk); err != nil {
			return 0, err
		}
	}
	lsn := l.next
	l.buf = appendRecord(l.buf, op, key, val, lsn)
	l.next++
	return lsn, nil
}

// spill writes all buffered records at the end of the file without
// fsyncing them.
func (l *Log) spill() error { return l.spillN(len(l.buf)) }

// spillN writes the first n buffered bytes at the end of the file
// without fsyncing, into extent the file already owns (reserve).
func (l *Log) spillN(n int) error {
	if l.failed != nil {
		return l.failed
	}
	if n == 0 {
		return nil
	}
	if err := l.reserve(l.size + int64(n)); err != nil {
		return err
	}
	wn, err := l.f.WriteAt(l.buf[:n], l.size)
	l.size += int64(wn)
	l.spills.Add(1)
	l.dirty.Store(true)
	if err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.buf = append(l.buf[:0], l.buf[n:]...)
	return nil
}

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n, align int64) int64 {
	return (n + align - 1) &^ (align - 1)
}

// extend grows a log file's extent from have to cover need, rounded up
// to a whole reserveChunk, by writing zeros — which fail every record
// CRC, so recovery ignores them — and returns the new extent. Written,
// not a sparse Truncate: the blocks are allocated here, once per chunk,
// and every later fsync over them only flushes data.
func extend(f io.WriterAt, have, need int64) (int64, error) {
	to := alignUp(need, reserveChunk)
	for off := have; off < to; {
		n, err := f.WriteAt(zeros[:min(to-off, reserveChunk)], off)
		if err != nil {
			return have, err
		}
		off += int64(n)
	}
	return to, nil
}

// reserve makes the file own at least size bytes ahead of the write
// that needs them.
func (l *Log) reserve(size int64) error {
	if size <= l.prealloc {
		return nil
	}
	p, err := extend(l.f, l.prealloc, size)
	l.dirty.Store(true)
	if err != nil {
		l.failed = fmt.Errorf("wal: preallocate: %w", err)
		return l.failed
	}
	l.prealloc = p
	return nil
}

// Spill writes every buffered record to the file without fsyncing:
// the first half of the commit protocol, separated from Fsync so
// SyncAll can overlap the fsync with other files'.
func (l *Log) Spill() error { return l.spill() }

// Fsync makes previously spilled records durable. It does not spill;
// pair it with Spill (or use Sync for both). A barrier that wrote
// nothing since the last fsync elides the syscall — one fsync per fd
// per group-commit round — counting the elision in FsyncsElided.
func (l *Log) Fsync() error {
	if l.failed != nil {
		return l.failed
	}
	return l.FsyncDetached()
}

// FsyncDetached is the fsync half without the append lock: a barrier
// calls Spill under the lock (which reports the sticky write failure),
// releases it and then calls this, while the owner goes on appending.
// It touches only the fsync state and the fd, covers every byte written
// before it was called, and waits its turn behind any fsync already in
// flight on this log — so a checkpoint's fsync, and Close, wait for a
// barrier's too.
func (l *Log) FsyncDetached() error {
	l.fsMu.Lock()
	defer l.fsMu.Unlock()
	if !l.dirty.Swap(false) {
		l.elided.Add(1)
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.dirty.Store(true) // not durable: the next barrier must try again
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.syncs.Add(1)
	return nil
}

// Sync makes every appended record durable: spill the buffer and fsync.
func (l *Log) Sync() error {
	if err := l.spill(); err != nil {
		return err
	}
	return l.Fsync()
}

// Fsyncs returns the number of fsyncs issued, and Spills the number of
// spill writes — the real-cost counters experiments report next to the
// paper's I/O counts.
func (l *Log) Fsyncs() int64 { return l.syncs.Load() }

// FsyncsElided returns the number of barrier fsyncs skipped because
// nothing had been written since the previous fsync.
func (l *Log) FsyncsElided() int64 { return l.elided.Load() }

// Spills returns the number of spill WriteAt syscalls issued.
func (l *Log) Spills() int64 { return l.spills.Load() }

// Reset recycles the log after a checkpoint commit: all records are
// discarded and the next append receives firstLSN. Only the header is
// rewritten; the file keeps its extent, cut down to the size the epoch
// just finished reached (rounded up to a reserveChunk, so one bulk-load
// epoch does not pin a large file), and the next epoch overwrites it.
// The stale records behind the new header cannot validate: each was
// summed with an older generation's firstLSN + position, and firstLSN
// only grows — a Reset that does not raise it empties the file instead.
//
// Nothing here is fsynced; the next Sync barrier makes the reset
// durable. A crash before then leaves some mix of the two generations'
// pages. Behind the old header the scan accepts old records only, each
// at or below the new checkpoint's LSN and skipped by the replay filter,
// and Open starts the log afresh when they end short of firstLSN; behind
// the new header it accepts a prefix of the new epoch's records, none of
// them acknowledged, since no barrier completed.
func (l *Log) Reset(firstLSN uint64) error {
	if l.failed != nil {
		return l.failed
	}
	l.buf = l.buf[:0]
	// An empty log already at firstLSN is byte-identical to the reset
	// result: skip the header rewrite so an idle checkpoint stays clean
	// and its barrier fsync can be elided. Only extent beyond the first
	// chunk, left by an earlier epoch, is given back.
	if l.next == firstLSN && l.size == headerBytes {
		return l.cutTo(reserveChunk)
	}
	return l.reset(firstLSN, firstLSN > l.first)
}

// cutTo gives the file's extent beyond cut back to the filesystem.
func (l *Log) cutTo(cut int64) error {
	if l.prealloc <= cut {
		return nil
	}
	if err := l.f.Truncate(cut); err != nil {
		l.failed = fmt.Errorf("wal: truncate: %w", err)
		return l.failed
	}
	l.prealloc = cut
	l.dirty.Store(true)
	return nil
}

// reset starts a generation at firstLSN. With keep the file's extent
// survives, down to the finished epoch's size; the caller vouches that
// firstLSN is above every earlier generation's. Otherwise the file is
// emptied first.
func (l *Log) reset(firstLSN uint64, keep bool) error {
	cut := int64(0)
	if keep {
		cut = alignUp(l.size, reserveChunk)
	}
	if err := l.cutTo(cut); err != nil {
		return err
	}
	var hdr [headerBytes]byte
	putHeader(hdr[:], magic, firstLSN)
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		l.failed = fmt.Errorf("wal: write header: %w", err)
		return l.failed
	}
	l.prealloc = max(l.prealloc, headerBytes)
	l.first, l.next = firstLSN, firstLSN
	l.size = headerBytes
	l.dirty.Store(true)
	return nil
}

// Interpose replaces the log's file with wrap(file): the seam tests use
// to observe or stall the log's syscalls. Call it before the log is
// shared with a detached fsync.
func (l *Log) Interpose(wrap func(iomodel.BlockFile) iomodel.BlockFile) { l.f = wrap(l.f) }

// Close flushes buffered records (without fsync), trims the
// preallocated tail so the file ends at its last record, and closes
// the file — after any fsync still in flight on it.
func (l *Log) Close() error {
	err := l.spill()
	l.fsMu.Lock()
	defer l.fsMu.Unlock()
	if err == nil && l.prealloc > l.size {
		if terr := l.f.Truncate(l.size); terr == nil {
			l.prealloc = l.size
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

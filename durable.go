package extbuf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"extbuf/internal/ckpt"
	"extbuf/internal/expiry"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/wal"
)

// This file implements the durability subsystem around the file
// backend: a versioned superblock + checkpoint beside the block file, a
// per-table write-ahead log, and the recovery path that makes
// extbuf.Open on an existing Config.Path reopen the table with its
// contents, structure parameters and block-chain topology intact.
//
// Protocol (DESIGN.md, "Durability & recovery"):
//
//   - Every mutation becomes WAL records after the structure absorbs it:
//     the guard's record step (guard.record) appends the applied subset
//     from the table's own goroutine (buffered; not yet durable). A write
//     that failed and a swap that was refused write no record, so there
//     is nothing to retract. Applying first is safe because copy-on-write
//     keeps every block written since the last checkpoint invisible to
//     recovery, and the checkpoint below spills and fsyncs the log before
//     it commits: a record must be durable before any checkpoint that
//     depends on it, not before the block write. A log failure is sticky,
//     so a mutation whose record was refused can never be checkpointed.
//     Read-paid merges (settleReads) write no record at all: a merge
//     moves copies between blocks and changes no logical content.
//   - Flush is the acknowledgement barrier: (1) spill the WAL and (2)
//     flush dirty blocks copy-on-write (coalesced into runs of adjacent
//     slots) — slots referenced by the previous checkpoint are never
//     overwritten (iomodel.FileStore's copy-on-write epoch) — then fsync both
//     files concurrently (wal.SyncAll): every operation so far is now
//     recoverable against the PREVIOUS checkpoint; (3) write the new
//     superblock+checkpoint to a temp file, fsync, and atomically rename
//     it over Path + ".ckpt"; (4) commit the copy-on-write epoch and
//     recycle the WAL (wal.Log.Reset).
//   - A crash strictly before (3)'s rename leaves the previous
//     checkpoint and a WAL holding every operation since it. A crash
//     after the rename leaves the new checkpoint, whose recorded LSN
//     makes any surviving WAL records no-ops. Recovery therefore always
//     sees one consistent checkpoint plus a CRC-validated log suffix.
//
// Superblock payload (framed by ckpt.Frame, version 4): structure name,
// construction parameters, shard layout, last-applied LSN, the block
// allocator + logical→physical placement state, the configured WAL
// path, the block file's slot layout (a mode name and a sector size),
// the expiry deadline map (key → unix ms), and the structure's
// serialized directory state. Version 1 (no WAL path), version 2 (no
// slot layout) and version 3 (no expiry map) files are still read; new
// checkpoints are written as version 4.
//
// The slot layout fields were written as Config.IOMode and the store's
// sector size while the O_DIRECT tier existed (PRs 9–24). They now only
// carry the layout: a new table records "buffered" and 0, packed slots;
// a table created under "odirect" or "uring" recorded its filesystem's
// sector, keeps slots padded to it through plain buffered I/O for life,
// and writes both fields back unchanged, so the code that wrote it
// still opens it.

// superblockVersion is the on-disk checkpoint format version.
const superblockVersion = 4

// minSuperblockVersion is the oldest checkpoint format still readable.
const minSuperblockVersion = 1

// ckptSuffix and walSuffix name a durable table's sidecar files.
const (
	ckptSuffix = ".ckpt"
	walSuffix  = ".wal"
)

// superblock is the decoded head of a checkpoint file.
type superblock struct {
	structure     string
	blockSize     int
	memoryWords   int64
	beta          int
	gamma         int
	expectedItems int
	seed          uint64
	hashFamily    string
	shardCount    int
	shardIndex    int
	lastLSN       uint64
	nslots        int
	free          []iomodel.BlockID
	mapping       []int64
	walPath       string            // configured Config.WALPath ("" = beside the block file)
	layout        string            // mode name the table was created under ("" on pre-v3 files)
	sector        int               // slot alignment the block file was written with (0 = packed)
	expiry        map[uint64]uint64 // key → expiry deadline (unix ms); nil on pre-v4 files
}

// durableTable is a structure adapter running on a durable FileStore,
// plus what only a durable table has: recovery, the checkpoint, the
// WAL's Sync barrier and the log's counters in StoreStats. Its
// operations are the adapter's; the guard it is opened under writes
// their WAL records (guard.record).
type durableTable struct {
	*adapter
	store     *iomodel.FileStore
	log       *wal.Log
	cfg       Config // effective configuration (post-merge, post-defaults)
	structure string
	layout    string // slot layout, recorded in every checkpoint as read
	sector    int
	crasher   *iomodel.Crasher
	enc       ckpt.Encoder  // reused checkpoint encode buffer
	exp       *expiry.Index // shared with the guard; snapshotted into checkpoints
}

// openDurable creates or recovers the durable table at cfg.Path. The
// expiry index idx is filled during recovery (checkpoint snapshot +
// OpExpire replay) and snapshotted into every checkpoint; the guard
// that owns this table shares it.
func openDurable(kind int, cfg Config, idx *expiry.Index) (*durableTable, error) {
	structure := structures[kind].name
	var crasher *iomodel.Crasher
	if cfg.Crash != nil {
		crasher = iomodel.NewCrasher(iomodel.CrashPlan{
			FailAfterWrites: cfg.Crash.FailAfterWrites,
			TornWrite:       cfg.Crash.TornWrite,
			FailSync:        cfg.Crash.FailSync,
			Seed:            cfg.Crash.Seed,
		})
	}
	sb, stateDec, err := readSuperblock(cfg.Path + ckptSuffix)
	if err != nil {
		return nil, err
	}
	if sb != nil {
		if cfg, err = sb.mergeConfig(structure, cfg); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateFor(structure); err != nil {
		return nil, err
	}
	// The slot layout is the superblock's for life; new tables are packed.
	layout, sector := "buffered", 0
	if sb != nil && sb.layout != "" {
		layout, sector = sb.layout, sb.sector
	}
	store, err := iomodel.OpenFileStore(cfg.Path, cfg.BlockSize, cfg.CacheBlocks, crasher, sector)
	if err != nil {
		return nil, err
	}
	model := iomodel.NewModelOn(store, cfg.MemoryWords)
	fn := hashfn.Family(cfg.HashFamily, cfg.Seed)

	var lastLSN uint64
	if sb != nil {
		if err := store.RestoreAllocState(sb.nslots, sb.free, sb.mapping); err != nil {
			model.Close()
			return nil, fmt.Errorf("extbuf: recover %s: %w", cfg.Path, err)
		}
		lastLSN = sb.lastLSN
		for k, dl := range sb.expiry {
			idx.Set(k, dl)
		}
	}
	inner, err := newAdapter(kind, model, fn, cfg, stateDec) // stateDec is nil on a fresh table
	if err != nil {
		return nil, err
	}

	log, records, err := wal.Open(cfg.walPath(), crasher, lastLSN+1)
	if err != nil {
		inner.Close()
		return nil, err
	}
	if err := replayRecords(records, lastLSN, fn, inner, idx, 0); err != nil {
		inner.Close()
		log.Close()
		return nil, err
	}
	return &durableTable{
		adapter:   inner,
		store:     store,
		log:       log,
		cfg:       cfg,
		structure: structure,
		layout:    layout,
		sector:    sector,
		crasher:   crasher,
		exp:       idx,
	}, nil
}

// walPath resolves the write-ahead log file: Config.WALPath if set (a
// dedicated WAL device/path), otherwise beside the block file.
func (c Config) walPath() string {
	if c.WALPath != "" {
		return c.WALPath
	}
	return c.Path + walSuffix
}

// replayParallelThreshold is the record count below which replay stays
// serial: partitioning and sorting a handful of records costs more
// than it saves.
const replayParallelThreshold = 4096

// replayTarget is what replay needs of the recovered structure (tests
// substitute a map).
type replayTarget interface {
	Upsert(key, val uint64) error
	Delete(key uint64) bool
}

// replayOp is one collapsed replay operation: the final state of a key
// in the log suffix, tagged with its hash for bucket-ordered apply. exp
// carries the key's final deadline (expSet) when an OpExpire record
// survived the collapse; expOnly marks a deadline change with no value
// write in the suffix (the value lives in the checkpointed structure).
type replayOp struct {
	key, val uint64
	hash     uint64
	exp      uint64
	del      bool
	expSet   bool
	expOnly  bool
}

// replayRecords applies the log suffix the checkpoint has not
// absorbed. Inserts replay as upserts: a record at or below the
// checkpoint LSN was discarded by Reset, but re-applying a full suffix
// must stay idempotent when a crash landed between checkpoint commit
// and that Reset.
//
// Large suffixes run through a parallel pipeline: records are
// partitioned by hash prefix into par groups, each group is collapsed
// to one operation per key (last write wins — per-key sequences of
// sets and deletes depend only on the final one) and sorted by hash
// concurrently, and the groups are then applied in hash order. The
// CPU work (hashing, dedup, sort) saturates cores, and the hash-
// ordered apply walks the structure's buckets sequentially instead of
// faulting the pool randomly, so the replayed I/O coalesces. Applying
// the collapsed suffix is content-equivalent to applying the full one;
// only the physical block layout may differ.
func replayRecords(records []wal.Record, lastLSN uint64, fn hashfn.Fn, inner replayTarget, idx *expiry.Index, par int) error {
	// Drop the prefix the checkpoint already absorbed.
	live := records
	for len(live) > 0 && live[0].LSN <= lastLSN {
		live = live[1:]
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if len(live) < replayParallelThreshold || par <= 1 {
		for _, r := range live {
			switch r.Op {
			case wal.OpInsert, wal.OpUpsert:
				if err := inner.Upsert(r.Key, r.Val); err != nil {
					return fmt.Errorf("extbuf: replay lsn %d: %w", r.LSN, err)
				}
				idx.Clear(r.Key) // a plain write makes the key persistent
			case wal.OpDelete:
				inner.Delete(r.Key)
				idx.Clear(r.Key)
			case wal.OpExpire:
				idx.Set(r.Key, r.Val) // value field carries the deadline
			}
		}
		return nil
	}
	// Partition count: power of two <= par, so a hash-prefix shift
	// assigns each key a group and groups cover disjoint bucket ranges.
	shift := uint(64)
	groups := 1
	for groups*2 <= par && groups < 64 {
		groups *= 2
		shift--
	}
	parts := make([][]wal.Record, groups)
	for _, r := range live {
		g := fn.Hash(r.Key) >> shift
		parts[g] = append(parts[g], r)
	}
	collapsed := make([][]replayOp, groups)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := parts[g]
			seenAt := make(map[uint64]int, len(part))
			ops := make([]replayOp, 0, len(part))
			for _, r := range part {
				if r.Op == wal.OpExpire {
					// A deadline rides on whatever state the key has so
					// far; with no prior record in the suffix, only the
					// index changes (the value is checkpointed).
					if i, seen := seenAt[r.Key]; seen {
						ops[i].exp = r.Val
						ops[i].expSet = true
						continue
					}
					op := replayOp{key: r.Key, exp: r.Val, expSet: true, expOnly: true, hash: fn.Hash(r.Key)}
					seenAt[r.Key] = len(ops)
					ops = append(ops, op)
					continue
				}
				// A value write or delete supersedes everything before it,
				// deadline included (plain writes clear TTL).
				op := replayOp{key: r.Key, val: r.Val, del: r.Op == wal.OpDelete}
				if i, seen := seenAt[r.Key]; seen {
					op.hash = ops[i].hash
					ops[i] = op
					continue
				}
				op.hash = fn.Hash(r.Key)
				seenAt[r.Key] = len(ops)
				ops = append(ops, op)
			}
			sort.Slice(ops, func(i, j int) bool { return ops[i].hash < ops[j].hash })
			collapsed[g] = ops
		}(g)
	}
	wg.Wait()
	for _, ops := range collapsed {
		for _, op := range ops {
			if !op.del && !op.expOnly {
				if err := inner.Upsert(op.key, op.val); err != nil {
					return fmt.Errorf("extbuf: replay key %d: %w", op.key, err)
				}
			}
			if op.del {
				inner.Delete(op.key)
			}
			// The deadline mirrors the serial order exactly: an expire
			// after the final write/delete sets it, anything else clears
			// it (a plain write makes the key persistent).
			switch {
			case op.expSet:
				idx.Set(op.key, op.exp)
			case !op.expOnly:
				idx.Clear(op.key)
			}
		}
	}
	return nil
}

// readSuperblock loads and validates the checkpoint at path. A missing
// file means a fresh table (nil superblock, nil error); a present but
// invalid file is an error — silently rebuilding an empty table over
// data that exists but fails validation would be data loss.
func readSuperblock(path string) (*superblock, *ckpt.Decoder, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("extbuf: read superblock: %w", err)
	}
	version, payload, err := ckpt.Unframe(data)
	if err != nil {
		return nil, nil, fmt.Errorf("extbuf: superblock %s: %w", path, err)
	}
	if version < minSuperblockVersion || version > superblockVersion {
		return nil, nil, fmt.Errorf("extbuf: superblock %s: unsupported version %d", path, version)
	}
	d := ckpt.NewDecoder(payload)
	sb := &superblock{
		structure:     d.String(),
		blockSize:     d.Int(),
		memoryWords:   d.I64(),
		beta:          d.Int(),
		gamma:         d.Int(),
		expectedItems: d.Int(),
		seed:          d.U64(),
		hashFamily:    d.String(),
		shardCount:    d.Int(),
		shardIndex:    d.Int(),
		lastLSN:       d.U64(),
		nslots:        d.Int(),
	}
	sb.free = d.BlockIDs()
	sb.mapping = d.I64s()
	if version >= 2 {
		sb.walPath = d.String()
	}
	if version >= 3 {
		sb.layout = d.String()
		sb.sector = d.Int()
	}
	if version >= 4 {
		sb.expiry = d.PairMap()
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("extbuf: superblock %s: %w", path, err)
	}
	// The remainder of the payload is the structure state; hand the
	// decoder over positioned at it.
	return sb, d, nil
}

// mergeConfig reconciles a reopen request against the stored
// parameters: the structure must match, zero-valued request fields
// adopt the stored values, and explicitly set fields must agree —
// reopening a table under a different hash seed or block size would
// silently scramble it.
func (sb *superblock) mergeConfig(structure string, cfg Config) (Config, error) {
	mismatch := func(field string, stored, requested any) error {
		return fmt.Errorf("%w: %s: stored %v, requested %v (path %s)",
			ErrSuperblockMismatch, field, stored, requested, cfg.Path)
	}
	if sb.structure != structure {
		return cfg, mismatch("structure", sb.structure, structure)
	}
	if sb.shardCount != cfg.shardCount || sb.shardIndex != cfg.shardIndex {
		return cfg, mismatch("shard layout",
			fmt.Sprintf("%d/%d", sb.shardIndex, sb.shardCount),
			fmt.Sprintf("%d/%d", cfg.shardIndex, cfg.shardCount))
	}
	merge := func(field string, stored int, req *int) error {
		if *req == 0 {
			*req = stored
			return nil
		}
		if *req != stored {
			return mismatch(field, stored, *req)
		}
		return nil
	}
	if err := merge("BlockSize", sb.blockSize, &cfg.BlockSize); err != nil {
		return cfg, err
	}
	if err := merge("Beta", sb.beta, &cfg.Beta); err != nil {
		return cfg, err
	}
	if err := merge("Gamma", sb.gamma, &cfg.Gamma); err != nil {
		return cfg, err
	}
	if err := merge("ExpectedItems", sb.expectedItems, &cfg.ExpectedItems); err != nil {
		return cfg, err
	}
	switch cfg.MemoryWords {
	case 0, sb.memoryWords:
		cfg.MemoryWords = sb.memoryWords
	default:
		return cfg, mismatch("MemoryWords", sb.memoryWords, cfg.MemoryWords)
	}
	switch cfg.Seed {
	case 0, sb.seed:
		cfg.Seed = sb.seed
	default:
		return cfg, mismatch("Seed", sb.seed, cfg.Seed)
	}
	switch cfg.HashFamily {
	case "", sb.hashFamily:
		cfg.HashFamily = sb.hashFamily
	default:
		return cfg, mismatch("HashFamily", sb.hashFamily, cfg.HashFamily)
	}
	// Reopening without a WALPath adopts the stored one — otherwise the
	// table would silently recover against a fresh empty log beside the
	// block file, losing the real log's tail on the other device.
	switch cfg.WALPath {
	case "", sb.walPath:
		cfg.WALPath = sb.walPath
	default:
		return cfg, mismatch("WALPath", sb.walPath, cfg.WALPath)
	}
	return cfg, nil
}

// StoreStats reports the block file's pool/syscall counters plus the
// write-ahead log's spill and fsync counts.
func (d *durableTable) StoreStats() StoreStats {
	st := fromFileStats(d.store.Stats())
	st.WALSpills = d.log.Spills()
	st.WALFsyncs = d.log.Fsyncs()
	st.WALFsyncsElided = d.log.FsyncsElided()
	return st
}

// Sync is the acknowledgement barrier: spill and fsync the write-ahead
// log, making every logged operation recoverable against the last
// checkpoint. Unlike Flush it writes no blocks and commits no
// checkpoint — one buffered write plus one fsync, the group-commit unit
// the serving layer acks client writes behind.
func (d *durableTable) Sync() error { return d.log.Sync() }

// Flush is the durability barrier: it commits a checkpoint, after which
// every previously submitted operation survives any crash.
func (d *durableTable) Flush() error { return d.checkpoint() }

// Close checkpoints and releases the table. The checkpoint error (a
// crashed store, a failed sync) is reported but does not prevent the
// resource teardown.
func (d *durableTable) Close() error {
	errs := []error{d.checkpoint()}
	errs = append(errs, d.adapter.Close()) // closes the model and block store
	errs = append(errs, d.log.Close())
	return errors.Join(errs...)
}

// checkpoint runs the four-step commit protocol described at the top of
// the file. The writes of steps (1) and (2) are issued first — in a
// deterministic order, so crash injection can replay a failure — and
// their fsyncs then run concurrently (wal.SyncAll): neither file's
// durability depends on the other's (copy-on-write keeps block flushes
// away from checkpointed slots whenever they land), only step (3)
// requires both.
func (d *durableTable) checkpoint() error {
	// (1) Spill the log; (2) flush dirty blocks copy-on-write, coalesced
	// into runs of adjacent slots. The previous checkpoint's slots stay
	// intact either way. The log's steps hold its append lock, as the
	// record step does: an ack barrier may spill and fsync it from
	// another goroutine meanwhile (Sharded.Sync).
	d.log.Lock()
	err := d.log.Spill()
	d.log.Unlock()
	if err != nil {
		return err
	}
	if err := d.store.FlushDirty(); err != nil {
		return err
	}
	// Both files reach durability together. After this, every operation
	// so far is recoverable against the PREVIOUS checkpoint. The spill
	// above reported the log's sticky failure, so its fsync half is all
	// that is left.
	if err := wal.SyncAll(d.log.FsyncDetached, d.store.Fsync); err != nil {
		return err
	}
	// (3) Commit the new superblock atomically.
	nextLSN := d.log.NextLSN()
	e := &d.enc
	e.Reset()
	e.String(d.structure)
	e.Int(d.cfg.BlockSize)
	e.I64(d.cfg.MemoryWords)
	e.Int(d.cfg.Beta)
	e.Int(d.cfg.Gamma)
	e.Int(d.cfg.ExpectedItems)
	e.U64(d.cfg.Seed)
	e.String(d.cfg.HashFamily)
	e.Int(d.cfg.shardCount)
	e.Int(d.cfg.shardIndex)
	e.U64(nextLSN - 1)
	nslots, free, mapping := d.store.AllocState()
	e.Int(nslots)
	e.BlockIDs(free)
	e.I64s(mapping)
	e.String(d.cfg.WALPath)
	e.String(d.layout)
	e.Int(d.sector)
	// The expiry index, in the format Decoder.PairMap reads back on
	// reopen: count, then pairs.
	e.U32(uint32(d.exp.Len()))
	d.exp.Range(func(k, dl uint64) {
		e.U64(k)
		e.U64(dl)
	})
	d.s.SaveState(e)
	if err := writeFileAtomic(d.cfg.Path+ckptSuffix, ckpt.Frame(superblockVersion, e.Bytes()), d.crasher); err != nil {
		return err
	}
	// (4) The checkpoint is durable: retire the superseded block slots
	// and the logged operations it absorbed.
	d.store.EndEpoch()
	d.log.Lock()
	defer d.log.Unlock()
	return d.log.Reset(nextLSN)
}

// writeFileAtomic writes data to path via a temp file, fsync and
// rename, so path always holds either the old or the new content. A
// non-nil crasher injects faults into the writes, modeling a crash
// mid-checkpoint (the rename never runs; the old file survives). On any
// failure before the rename the temp file is removed: a table whose
// Flush failed must still release every resource it acquired when the
// caller moves on to Close (a lingering ".ckpt.tmp" would otherwise
// survive the table and shadow disk space until the next checkpoint).
func writeFileAtomic(path string, data []byte, crasher *iomodel.Crasher) error {
	tmpPath := path + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("extbuf: checkpoint temp: %w", err)
	}
	var bf iomodel.BlockFile = f
	if crasher != nil {
		bf = crasher.WrapFile(bf)
	}
	if _, err := bf.Write(data); err != nil {
		bf.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("extbuf: checkpoint write: %w", err)
	}
	if err := bf.Sync(); err != nil {
		bf.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("extbuf: checkpoint sync: %w", err)
	}
	if err := bf.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("extbuf: checkpoint close: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("extbuf: checkpoint rename: %w", err)
	}
	// Make the rename itself durable (best-effort: some platforms
	// reject directory fsync).
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

package extbuf

import (
	"fmt"

	"extbuf/internal/core"
	"extbuf/internal/iomodel"
)

// Test-only exports: the differential model checker asserts that
// buffer-pool pin reference counts balance after every operation
// sequence, which needs a path from a public Table (or engine) down to
// its block store's pin gauge.

// poolPinned reports the pin gauge of the adapter's backing store.
func (a *adapter) poolPinned() (int, bool) {
	switch st := a.model.Disk.Store().(type) {
	case *iomodel.FileStore:
		return st.PinnedFrames(), true
	case *iomodel.MemStore:
		return st.PinnedBlocks(), true
	}
	return 0, false
}

// PoolPinnedForTest walks tab to its block store(s) and returns the
// summed pin gauge. ok is false when no store with a gauge was found.
func PoolPinnedForTest(tab Table) (pinned int, ok bool) {
	switch v := tab.(type) {
	case *guard:
		return PoolPinnedForTest(v.t)
	case *durableTable:
		return v.store.PinnedFrames(), true
	case *Sharded:
		found := false
		for _, sh := range v.shards {
			if p, shOK := PoolPinnedForTest(sh); shOK {
				pinned += p
				found = true
			}
		}
		return pinned, found
	}
	if p, pOK := tab.(interface{ poolPinned() (int, bool) }); pOK {
		return p.poolPinned()
	}
	return 0, false
}

// SlotLayoutForTest reads the slot layout the superblock beside the
// durable table at path records: the mode name it was created under and
// its slot alignment.
func SlotLayoutForTest(path string) (layout string, sector int, err error) {
	sb, _, err := readSuperblock(path + ckptSuffix)
	if err != nil || sb == nil {
		return "", 0, err
	}
	return sb.layout, sb.sector, nil
}

// CopiesForTest walks tab down to its Theorem 2 structure and returns
// the number of live copies of key across H_0, Ĥ and the cascade levels
// (a zero-I/O audit). First-hit Delete, Upsert and CAS are only correct
// while this stays at most 1. ok is false for the baseline structures,
// which keep no such invariant.
func CopiesForTest(tab Table, key uint64) (copies int, ok bool) {
	switch v := tab.(type) {
	case *guard:
		return CopiesForTest(v.t, key)
	case *durableTable:
		return CopiesForTest(v.adapter, key)
	case *adapter:
		if t, isCore := v.s.(*core.Table); isCore {
			return t.Copies(key), true
		}
	case *Sharded:
		// Only when the engine is quiescent: the audit reads the owning
		// shard's structure from outside its worker.
		return CopiesForTest(v.shards[v.shard(key)], key)
	}
	return 0, false
}

// MergeStatsForTest returns tab's restructuring counters: every table
// Open returns and *Sharded have a MergeStats method, which Engine does
// not name.
func MergeStatsForTest(tab any) MergeStats {
	return tab.(interface{ MergeStats() MergeStats }).MergeStats()
}

// WithClock returns cfg with the TTL clock replaced by now (unix ms),
// so expiry tests control time instead of sleeping through it.
func (c Config) WithClock(now func() uint64) Config {
	c.nowMillis = now
	return c
}

// heldFile announces every Sync of the file it wraps on entered and
// holds it until release is closed.
type heldFile struct {
	iomodel.BlockFile
	entered chan struct{}
	release chan struct{}
}

func (f *heldFile) Sync() error {
	select {
	case f.entered <- struct{}{}:
	default: // an earlier signal is still unread
	}
	<-f.release
	return f.BlockFile.Sync()
}

// HoldShardFsyncForTest interposes on the write-ahead log of the shard
// that owns key: each of its fsyncs signals entered and then blocks
// until release is closed. Call it before the engine sees any operation.
func HoldShardFsyncForTest(s *Sharded, key uint64) (entered <-chan struct{}, release chan<- struct{}) {
	f := &heldFile{entered: make(chan struct{}, 1), release: make(chan struct{})}
	d := s.shards[s.shard(key)].t.(*durableTable)
	d.log.Interpose(func(bf iomodel.BlockFile) iomodel.BlockFile { f.BlockFile = bf; return f })
	return f.entered, f.release
}

// BatchForTest runs one keyed batch of op with StartBatch's operand
// columns (see Engine.StartBatch) on a table Open returned — the length
// contract, then the guard's apply, which is what a shard worker runs —
// or, on a *Sharded, StartBatch and Wait. It is how tests reach the
// batch-only kinds (expire, upsert-ttl, compare-swap) on a single table.
func BatchForTest(tab Table, op BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (uint64, error) {
	if s, ok := tab.(*Sharded); ok {
		c, err := s.StartBatch(op, ship, keys, vals, vals2, found)
		if err != nil {
			return 0, err
		}
		return c.Wait()
	}
	v := opVec{kind: op, ship: ship, keys: keys}
	use := keyedOps[op]
	if use.vals {
		v.vals = vals
	}
	if use.vals2 {
		v.vals2 = vals2
	}
	if use.outV {
		v.outV = vals
	}
	if use.outOK {
		v.outOK = found
	}
	if err := v.check(); err != nil {
		return 0, err
	}
	return tab.(*guard).apply(&v, nil)
}

// SetShipForTest installs the ship sink of a table Open returned, or of
// a *Sharded.
func SetShipForTest(tab Table, fn ShipFunc) {
	tab.(interface{ SetShip(ShipFunc) }).SetShip(fn)
}

// CrashWritesForTest returns how many write syscalls the crash plan of a
// durable table has counted so far — what FailAfterWrites is matched
// against.
func CrashWritesForTest(tab Table) int64 {
	return tab.(*guard).t.(*durableTable).crasher.Writes()
}

// ShardCrasherForTest returns the crash plan executor of shard i of a
// durable engine opened with Config.Crash: each shard counts its own
// writes against the plan.
func ShardCrasherForTest(s *Sharded, i int) *iomodel.Crasher {
	return s.shards[i].t.(*durableTable).crasher
}

// LogicalBlocksForTest decodes the durable table at path through the
// mapping of the checkpoint beside it: for every logical block ID, the
// chain pointer and entries the store reads back, or "" for a block the
// mapping leaves unwritten. Where the blocks sit in the file does not
// show. The table must be closed; its files are only read.
func LogicalBlocksForTest(path string) ([]string, error) {
	sb, _, err := readSuperblock(path + ckptSuffix)
	if err != nil {
		return nil, err
	}
	if sb == nil {
		return nil, fmt.Errorf("%s: no checkpoint", path)
	}
	st, err := iomodel.OpenFileStore(path, sb.blockSize, 0, nil, sb.sector)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.RestoreAllocState(sb.nslots, sb.free, sb.mapping); err != nil {
		return nil, err
	}
	blocks := make([]string, sb.nslots)
	for id, phys := range sb.mapping {
		if phys >= 0 {
			b := iomodel.BlockID(id)
			blocks[id] = fmt.Sprint(st.Next(b), st.ReadBlock(b, nil))
		}
	}
	return blocks, nil
}

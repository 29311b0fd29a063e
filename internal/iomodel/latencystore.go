package iomodel

import (
	"fmt"
	"sort"
	"time"
)

// LatencyConfig sets the delays a LatencyStore injects per block
// transfer: Seek models head positioning, Transfer the block's time on
// the bus. Both apply to every ReadBlock and WriteBlock; header access,
// allocation and Peek stay free, matching the model's convention that
// only block transfers cost.
//
// The zero values of the optional fields reproduce the original flat
// pricing: every transfer costs Seek + Transfer. SeqTransfer and
// QueueDepth refine the device model in the fio style:
//
//   - SeqTransfer, if > 0, prices an access whose block ID immediately
//     follows the previous access: Seek is waived and SeqTransfer
//     replaces Transfer, so coalesced/clustered I/O patterns are
//     rewarded the way real devices reward them.
//   - QueueDepth, if > 0, bounds how many transfers the device absorbs
//     concurrently: when more callers than QueueDepth arrive, the
//     excess queue behind a semaphore, making measured latency
//     queue-depth-sensitive (an hdd with QueueDepth 1 serializes; an
//     nvme with QueueDepth 8 absorbs a worker pool).
type LatencyConfig struct {
	Seek        time.Duration
	Transfer    time.Duration
	SeqTransfer time.Duration
	QueueDepth  int
}

// DeviceProfiles lists the built-in fio-style presets accepted by
// DeviceProfile, roughly calibrated to the three device classes
// experiments care about.
var deviceProfiles = map[string]LatencyConfig{
	// NVMe flash: cheap "seeks" (no head), deep queues.
	"nvme": {Seek: 20 * time.Microsecond, Transfer: 5 * time.Microsecond,
		SeqTransfer: 2 * time.Microsecond, QueueDepth: 8},
	// SATA SSD: flat latency, shallow queue.
	"ssd": {Seek: 80 * time.Microsecond, Transfer: 25 * time.Microsecond,
		SeqTransfer: 10 * time.Microsecond, QueueDepth: 4},
	// Spinning disk: seeks dominate, sequential streams are nearly
	// free by comparison, one head — queue depth 1.
	"hdd": {Seek: 4 * time.Millisecond, Transfer: 60 * time.Microsecond,
		SeqTransfer: 60 * time.Microsecond, QueueDepth: 1},
}

// DeviceProfile returns the named built-in latency preset (nvme, ssd
// or hdd).
func DeviceProfile(name string) (LatencyConfig, error) {
	cfg, ok := deviceProfiles[name]
	if !ok {
		return LatencyConfig{}, fmt.Errorf("iomodel: unknown device profile %q (want one of %v)",
			name, DeviceProfileNames())
	}
	return cfg, nil
}

// DeviceProfileNames returns the built-in profile names, sorted.
func DeviceProfileNames() []string {
	names := make([]string, 0, len(deviceProfiles))
	for name := range deviceProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LatencyStore wraps another BlockStore and sleeps for a configurable
// seek+transfer time on every block read and write. It sits between the
// free MemStore and the hardware-priced FileStore: counters stay exactly
// those of the inner store's Disk, but wall-clock measurements now
// reflect a device with the configured characteristics (e.g. a 4 ms seek
// spindle or a 50 µs NVMe read).
type LatencyStore struct {
	inner  BlockStore
	cfg    LatencyConfig
	ops    int64
	seqOps int64
	waited time.Duration
	lastID BlockID       // previous delayed access, for sequential detection
	queue  chan struct{} // device queue-depth semaphore (nil: unbounded)
}

var _ BlockStore = (*LatencyStore)(nil)

// NewLatencyStore wraps inner with the given delays.
func NewLatencyStore(inner BlockStore, cfg LatencyConfig) *LatencyStore {
	s := &LatencyStore{inner: inner, cfg: cfg, lastID: NilBlock}
	if cfg.QueueDepth > 0 {
		s.queue = make(chan struct{}, cfg.QueueDepth)
	}
	return s
}

// Waited returns the total injected delay so far.
func (s *LatencyStore) Waited() time.Duration { return s.waited }

// DelayedOps returns the number of block transfers that were delayed.
func (s *LatencyStore) DelayedOps() int64 { return s.ops }

// SeqOps returns the number of delayed transfers priced at the
// sequential rate (block ID adjacent to the previous access).
func (s *LatencyStore) SeqOps() int64 { return s.seqOps }

// Inner returns the wrapped store.
func (s *LatencyStore) Inner() BlockStore { return s.inner }

func (s *LatencyStore) delay(id BlockID) {
	d := s.cfg.Seek + s.cfg.Transfer
	if s.cfg.SeqTransfer > 0 && s.lastID != NilBlock && id == s.lastID+1 {
		d = s.cfg.SeqTransfer
		s.seqOps++
	}
	s.lastID = id
	if d <= 0 {
		return
	}
	if s.queue != nil {
		s.queue <- struct{}{}
	}
	time.Sleep(d)
	if s.queue != nil {
		<-s.queue
	}
	s.waited += d
	s.ops++
}

// B returns the block capacity in entries.
func (s *LatencyStore) B() int { return s.inner.B() }

// Alloc reserves a fresh empty block (free, like the model's Alloc).
func (s *LatencyStore) Alloc() BlockID { return s.inner.Alloc() }

// Free releases a block (free).
func (s *LatencyStore) Free(id BlockID) { s.inner.Free(id) }

// ReadBlock reads block id after the configured delay.
func (s *LatencyStore) ReadBlock(id BlockID, buf []Entry) []Entry {
	s.delay(id)
	return s.inner.ReadBlock(id, buf)
}

// WriteBlock writes block id after the configured delay.
func (s *LatencyStore) WriteBlock(id BlockID, entries []Entry) {
	s.delay(id)
	s.inner.WriteBlock(id, entries)
}

// ClearBlock empties block id (free: a TRIM transfers no data).
func (s *LatencyStore) ClearBlock(id BlockID) { s.inner.ClearBlock(id) }

// PeekBlock returns block id's contents without delay (audit-only API).
func (s *LatencyStore) PeekBlock(id BlockID) []Entry { return s.inner.PeekBlock(id) }

// PinBlock reads block id after the configured delay: a pinned read is
// still a block transfer, so it is priced exactly like ReadBlock.
func (s *LatencyStore) PinBlock(id BlockID) []Entry {
	s.delay(id)
	return s.inner.PinBlock(id)
}

// UnpinBlock releases one pin (free: no data moves).
func (s *LatencyStore) UnpinBlock(id BlockID) { s.inner.UnpinBlock(id) }

// Next returns the overflow-chain pointer of block id (header, free).
func (s *LatencyStore) Next(id BlockID) BlockID { return s.inner.Next(id) }

// SetNext updates the overflow-chain pointer of block id (header, free).
func (s *LatencyStore) SetNext(id, next BlockID) { s.inner.SetNext(id, next) }

// NumBlocks returns the number of allocated (live) blocks.
func (s *LatencyStore) NumBlocks() int { return s.inner.NumBlocks() }

// Sync delegates to the inner store.
func (s *LatencyStore) Sync() error { return s.inner.Sync() }

// Close delegates to the inner store.
func (s *LatencyStore) Close() error { return s.inner.Close() }

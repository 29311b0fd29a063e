package extbuf

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"extbuf/internal/chainhash"
	"extbuf/internal/ckpt"
	"extbuf/internal/core"
	"extbuf/internal/expiry"
	"extbuf/internal/exthash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/linhash"
	"extbuf/internal/linprobe"
	"extbuf/internal/logmethod"
	"extbuf/internal/twolevel"
	"extbuf/internal/wal"
)

// Stats reports cumulative I/O counts of a table's simulated disk.
// IOs = Reads + Writes is the seek-dominated cost the paper measures;
// WriteBacks are writes issued immediately after reading the same block,
// free under the paper's footnote-2 convention.
type Stats struct {
	Reads      int64
	Writes     int64
	WriteBacks int64
}

// IOs returns the seek-dominated I/O count.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// StoreStats reports the real storage costs behind a table — what the
// bytes actually cost, next to the model counters of Stats. On the file
// backend these are the buffer pool's syscall, cache and coalescing
// counters (iomodel.FileStats); a durable table adds its write-ahead
// log's spill and fsync counts. Scratch backends (mem, latency) have no
// real costs and report zeros. The serving layer exposes this struct
// over the wire via the STATS request.
type StoreStats struct {
	ReadSyscalls    int64 // preads issued (cache misses that touched the file)
	WriteSyscalls   int64 // pwrites issued (evictions and coalesced flush runs)
	CacheHits       int64 // block accesses served from the buffer pool
	CacheMisses     int64 // block accesses that had to fault a frame in
	BytesRead       int64
	BytesWritten    int64
	Evictions       int64 // frames recycled to make room for a faulting block
	DirtyWritebacks int64 // evicted frames that had to be written back first
	FlushedFrames   int64 // dirty frames written back (flush barriers + clustering)
	FlushRuns       int64 // pwrites the flushed frames were batched into
	Fsyncs          int64 // fsyncs of the block file
	FsyncsElided    int64 // block-file barrier fsyncs skipped (nothing written since the last)
	GhostHits       int64 // faults of recently evicted blocks (scan-resistant promotions)
	WALSpills       int64 // write-ahead log spill writes (durable tables)
	WALFsyncs       int64 // write-ahead log fsyncs (durable tables)
	WALFsyncsElided int64 // write-ahead log barrier fsyncs skipped (durable tables)

	// Kernel-bypass tier counters (zero under IOMode "buffered"). The
	// fields are appended so older STATS wire peers keep decoding.
	DirectIO         int64 // stores (shards) whose block fd is open O_DIRECT
	ODirectFallbacks int64 // O_DIRECT opens refused by the filesystem (buffered fallback)
	UringEnters      int64 // io_uring_enter syscalls issued
	UringSQEs        int64 // submission-queue entries placed (writes through the ring)
	UringFallbacks   int64 // io_uring rings refused (tag off or kernel probe failed)
}

// Add returns s + o field-wise, for aggregating shards.
func (s StoreStats) Add(o StoreStats) StoreStats {
	s.ReadSyscalls += o.ReadSyscalls
	s.WriteSyscalls += o.WriteSyscalls
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Evictions += o.Evictions
	s.DirtyWritebacks += o.DirtyWritebacks
	s.FlushedFrames += o.FlushedFrames
	s.FlushRuns += o.FlushRuns
	s.Fsyncs += o.Fsyncs
	s.FsyncsElided += o.FsyncsElided
	s.GhostHits += o.GhostHits
	s.WALSpills += o.WALSpills
	s.WALFsyncs += o.WALFsyncs
	s.WALFsyncsElided += o.WALFsyncsElided
	s.DirectIO += o.DirectIO
	s.ODirectFallbacks += o.ODirectFallbacks
	s.UringEnters += o.UringEnters
	s.UringSQEs += o.UringSQEs
	s.UringFallbacks += o.UringFallbacks
	return s
}

// fromFileStats maps the file backend's counter struct onto the public
// one.
func fromFileStats(st iomodel.FileStats) StoreStats {
	return StoreStats{
		ReadSyscalls:     st.ReadSyscalls,
		WriteSyscalls:    st.WriteSyscalls,
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		BytesRead:        st.BytesRead,
		BytesWritten:     st.BytesWritten,
		Evictions:        st.Evictions,
		DirtyWritebacks:  st.DirtyWritebacks,
		FlushedFrames:    st.FlushedFrames,
		FlushRuns:        st.FlushRuns,
		Fsyncs:           st.Fsyncs,
		FsyncsElided:     st.FsyncsElided,
		GhostHits:        st.GhostHits,
		DirectIO:         st.DirectIO,
		ODirectFallbacks: st.ODirectFallbacks,
		UringEnters:      st.UringEnters,
		UringSQEs:        st.UringSQEs,
		UringFallbacks:   st.UringFallbacks,
	}
}

// Table is a dynamic external hash table storing one-word keys and
// values, the paper's atomic items. Implementations are not safe for
// concurrent use.
type Table interface {
	// Insert stores (key, val). For the buffered table (New) the key
	// must not already be present — the paper's insert-only model; this
	// is what keeps its lookups at 1 + O(1/beta) I/Os, and what lets
	// Upsert, Delete and compare-and-swap stop at the first copy of a
	// key they meet: an Insert of a present key strands a second copy
	// that a later Delete does not remove. Use Upsert for
	// read-modify-write. Baseline tables treat Insert as Upsert.
	Insert(key, val uint64) error
	// Upsert stores (key, val) whether or not key is present.
	Upsert(key, val uint64) error
	// Lookup returns the value stored for key.
	Lookup(key uint64) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) bool
	// Len returns the number of stored entries.
	Len() int
	// Stats returns cumulative I/O counts since construction.
	Stats() Stats
	// MemoryUsed returns the words of main memory the table currently
	// charges against its budget.
	MemoryUsed() int64
	// Sync is the lightweight acknowledgement barrier: once it returns
	// nil, every operation submitted before it survives a crash. A
	// durable table (file backend with a named Path) spills and fsyncs
	// its write-ahead log — no checkpoint, no block flush — so recovery
	// replays the log against the last checkpoint; the serving layer
	// group-commits client acks behind exactly this barrier. Scratch
	// backends degrade to a backend sync (a no-op in memory).
	Sync() error
	// Flush forces any state buffered by the storage backend down to
	// durable storage. For a durable table (file backend with a named
	// Path) this is the checkpoint barrier: it fsyncs the write-ahead
	// log, flushes dirty blocks, commits a checkpoint and truncates the
	// log, so every operation submitted before Flush survives a crash
	// once it returns nil — and subsequent recovery pays no log replay.
	// For scratch backends it degrades to a backend sync (a no-op in
	// memory).
	Flush() error
	// StoreStats returns the real-cost counters of the table's storage
	// backend: the file backend's buffer-pool and syscall counters plus,
	// for a durable table, the write-ahead log's spill and fsync counts.
	// Backends without real costs (mem, latency) report zeros. Like
	// Stats, it stays readable after Close.
	StoreStats() StoreStats
	// Close flushes (checkpointing a durable table), releases the
	// table's memory reservations and the storage backend's resources,
	// and returns any error the backend reports. The table must not be
	// used afterwards: operations on a closed table return ErrClosed
	// (or zero values from Lookup/Delete/Len), and a second Close
	// returns ErrClosed rather than panicking.
	Close() error
}

// Config parametrizes table construction.
type Config struct {
	// BlockSize is b, the number of items per disk block (default 64;
	// must be >= 8 — the paper assumes b > log u).
	BlockSize int
	// MemoryWords is m, the main-memory budget in words (default 1024).
	MemoryWords int64
	// Beta is the Theorem 2 merge parameter (default 8; 2 <= Beta <= b).
	// Lookups cost 1 + O(1/Beta); insertions O(Beta/b + log/b).
	Beta int
	// Gamma is the logarithmic-method growth factor (default 2).
	Gamma int
	// ExpectedItems pre-sizes fixed-capacity baselines (default 1 << 16).
	ExpectedItems int
	// Seed drives the hash function; runs with equal seeds are
	// identical (default 1).
	Seed uint64
	// HashFamily selects "ideal" (default), "multshift" or "tabulation".
	HashFamily string
	// Backend selects the block-store backend: "mem" (default) is the
	// paper's free in-memory simulated store, "file" persists blocks to
	// a real file behind a page cache, "latency" injects seek/transfer
	// delays into an in-memory store. I/O counters are identical across
	// backends; only the real cost of the bytes differs.
	Backend string
	// Path names the backing file of the "file" backend and switches it
	// into durable mode: the table writes a write-ahead log (Path +
	// ".wal") and checkpointed superblock (Path + ".ckpt") beside the
	// block file, and Open on an existing Path reopens the table with
	// its contents, structure parameters and block-chain topology
	// intact, replaying the log for operations after the last
	// checkpoint. Empty selects a fresh scratch temporary file that is
	// removed when the table is closed (no durability machinery, the
	// pre-durability behavior).
	Path string
	// WALPath names the write-ahead log file of a durable table,
	// placing it on a different path (typically a different device)
	// than the block file, so group-commit WAL fsyncs never queue
	// behind checkpoint writeback on one fd. Empty (the default) keeps
	// the log beside the block file at Path + ".wal". The setting is
	// recorded in the superblock: reopening with an empty WALPath
	// adopts the stored one, and an explicitly different WALPath fails
	// with ErrSuperblockMismatch instead of silently recovering without
	// the log's tail. NewSharded appends the same ".shardNNN" suffix it
	// appends to Path.
	WALPath string
	// CacheBlocks is the "file" backend's page-cache capacity in blocks
	// (default iomodel.DefaultCacheBlocks).
	CacheBlocks int
	// IOMode selects the "file" backend's kernel-bypass tier: "buffered"
	// (the default) routes block and WAL I/O through the kernel page
	// cache; "odirect" opens both files O_DIRECT with sector-aligned
	// buffers and slot layout, making the table's own pool the only
	// cache; "uring" is odirect plus an io_uring submission queue in
	// place of the pwrite writeback pool (Linux, build tag "iouring").
	// Each rung falls back one step where unsupported — filesystems
	// without O_DIRECT, kernels without io_uring, binaries without the
	// tag — recorded in StoreStats.ODirectFallbacks/UringFallbacks; the
	// fallback changes only the syscall path, never the file layout. The
	// mode is recorded in the superblock: reopening with an empty IOMode
	// adopts the stored one, the two direct modes (which share a layout)
	// reopen each other's files, and a buffered/direct conflict fails
	// with ErrSuperblockMismatch. Crash-injected tables always run
	// buffered and synchronous (the crash matrix counts write syscalls).
	IOMode string
	// WritebackWorkers sets the "file" backend's asynchronous writeback
	// pool: flush-barrier and eviction writes are encoded on the table
	// goroutine but submitted as concurrent pwrites by this many
	// workers, keeping the device queue full. 0 (the default) selects
	// min(4, GOMAXPROCS): enough concurrent submissions to keep a
	// flash device's queue busy, degrading to fully synchronous writes
	// on a single-CPU machine where the pool is pure overhead. 1
	// forces synchronous writes.
	// Crash-injected tables (Crash != nil) always write synchronously —
	// the crash harness counts write syscalls, so submission order must
	// stay deterministic.
	WritebackWorkers int
	// RecoveryParallelism bounds the concurrency of the recovery cold
	// path: NewSharded opens (and replays) this many shards at once,
	// and within each shard the WAL replay pipeline partitions records
	// by hash bucket across this many goroutines before applying them
	// in bucket order. 0 (the default) uses GOMAXPROCS; 1 recovers
	// serially.
	RecoveryParallelism int
	// SeekDelay and TransferDelay are the "latency" backend's per-block
	// delays. If both are zero the backend defaults to a 100µs seek and
	// 25µs transfer.
	SeekDelay     time.Duration
	TransferDelay time.Duration
	// DeviceProfile selects a built-in fio-style preset for the
	// "latency" backend ("nvme", "ssd" or "hdd": seek vs sequential
	// transfer cost and a device queue depth), overriding SeekDelay and
	// TransferDelay. Empty uses the explicit delays.
	DeviceProfile string
	// FlushPolicy selects when mutations submitted to the Sharded
	// engine complete: FlushSync (default) makes every Insert/Upsert
	// call — single or batch — return only after its shard workers have
	// applied it, while FlushAsync enqueues mutations and returns
	// immediately (write-behind), deferring application errors and
	// durability to the next Flush or Close barrier. Lookups, deletes
	// and Len always synchronize behind queued writes of their shard,
	// so read-your-writes holds under both policies. Single (unsharded)
	// tables ignore the field.
	FlushPolicy string
	// Crash injects deterministic faults into a durable table's files
	// (block file, write-ahead log, checkpoint writes) for recovery
	// testing: a simulated process death at the Nth write syscall,
	// optionally torn, or failing fsyncs. Requires the "file" backend
	// with a non-empty Path. Production configurations leave it nil.
	Crash *CrashPlan

	// shardCount/shardIndex are set by NewSharded so each shard's
	// superblock records its place in the engine; reopening with a
	// different shard count fails with ErrSuperblockMismatch instead of
	// silently misrouting keys.
	shardCount int
	shardIndex int
	// nowMillis overrides the TTL clock (unix milliseconds); tests
	// inject deterministic time through it (see export_test.go). Nil
	// uses the real clock.
	nowMillis func() uint64
	// committer is the shared group-commit fsync pool NewSharded hands
	// every durable shard, so one Flush barrier overlaps all shards'
	// WAL and block-file fsyncs. Nil (single tables) gets a private
	// two-slot committer.
	committer *wal.Committer
}

// CrashPlan describes a deterministic fault to inject into a durable
// table's storage, mirroring iomodel's plan for public use. The zero
// plan injects nothing.
type CrashPlan struct {
	// FailAfterWrites simulates a process death at the Nth write
	// syscall (1-based) across the table's files; zero never crashes.
	FailAfterWrites int64
	// TornWrite makes the fatal write partial: a seed-determined
	// prefix of its bytes persists.
	TornWrite bool
	// FailSync makes every fsync fail without crashing.
	FailSync bool
	// Seed drives the torn-write prefix length.
	Seed uint64
}

// FlushPolicy values accepted by Config.FlushPolicy.
const (
	// FlushSync completes every mutation before its call returns.
	FlushSync = "sync"
	// FlushAsync queues mutations (write-behind) until a Flush or
	// Close barrier.
	FlushAsync = "async"
)

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.MemoryWords == 0 {
		c.MemoryWords = 1024
	}
	if c.Beta == 0 {
		c.Beta = 8
	}
	if c.Gamma == 0 {
		c.Gamma = 2
	}
	if c.ExpectedItems == 0 {
		c.ExpectedItems = 1 << 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Backend == "" {
		c.Backend = "mem"
	}
	if c.Backend == "latency" && c.SeekDelay == 0 && c.TransferDelay == 0 {
		c.SeekDelay = 100 * time.Microsecond
		c.TransferDelay = 25 * time.Microsecond
	}
	if c.FlushPolicy == "" {
		c.FlushPolicy = FlushSync
	}
	if c.IOMode == "" {
		c.IOMode = iomodel.IOModeBuffered
	}
	return c
}

// durable reports whether the configuration selects the durable file
// backend (named path ⇒ WAL + checkpointed superblock + reopen).
func (c Config) durable() bool { return c.Backend == "file" && c.Path != "" }

// ErrBlockTooSmall is returned for block sizes under 8 items.
var ErrBlockTooSmall = errors.New("extbuf: block size must be >= 8 items")

// ErrBetaRange is returned when Config.Beta violates 2 <= Beta <= BlockSize
// (the paper requires 2 <= beta <= b).
var ErrBetaRange = errors.New("extbuf: Beta must satisfy 2 <= Beta <= BlockSize")

// ErrGammaRange is returned when Config.Gamma is below the logarithmic
// method's minimum growth factor of 2.
var ErrGammaRange = errors.New("extbuf: Gamma must be >= 2")

// ErrUnknownBackend is returned for Backend values other than "mem",
// "file" and "latency".
var ErrUnknownBackend = errors.New("extbuf: unknown backend")

// ErrUnknownFlushPolicy is returned for FlushPolicy values other than
// FlushSync and FlushAsync.
var ErrUnknownFlushPolicy = errors.New("extbuf: unknown flush policy")

// ErrUnknownIOMode is returned for IOMode values other than "buffered",
// "odirect" and "uring".
var ErrUnknownIOMode = errors.New("extbuf: unknown IO mode")

// ErrBatchLength is returned by batch operations whose key and value
// slices differ in length.
var ErrBatchLength = errors.New("extbuf: batch keys and values differ in length")

// ErrClosed is returned by operations on a closed table or engine,
// including a second Close.
var ErrClosed = errors.New("extbuf: table is closed")

// ErrSuperblockMismatch is returned when Open finds an existing durable
// table at Config.Path whose superblock disagrees with the request: a
// different structure, an explicitly set parameter that conflicts with
// the stored one, or a different shard layout.
var ErrSuperblockMismatch = errors.New("extbuf: superblock does not match request")

// validateBlockSize enforces the paper's b > log u assumption. It is the
// first check of every constructor, so ErrBlockTooSmall takes precedence
// over parameter-range errors.
func (c Config) validateBlockSize() error {
	if c.BlockSize < 8 {
		return ErrBlockTooSmall
	}
	return nil
}

// defaultWritebackWorkers is the asynchronous writeback pool size used
// when Config.WritebackWorkers is zero: enough concurrent submissions
// to keep a flash device's queue busy, few enough that a many-shard
// engine does not drown in idle goroutines — and none at all on a
// single-CPU machine, where every handoff to a worker is a context
// switch on the only core and the pool can only slow the store down.
func defaultWritebackWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// writebackWorkers resolves the effective pool size (see the Config
// field).
func (c Config) writebackWorkers() int {
	if c.WritebackWorkers == 0 {
		return defaultWritebackWorkers()
	}
	return c.WritebackWorkers
}

// store builds the scratch (non-durable) block-store backend selected
// by c.Backend; durable file stores are opened by openDurable.
func (c Config) store() (iomodel.BlockStore, error) {
	switch c.Backend {
	case "", "mem":
		return iomodel.NewMemStore(c.BlockSize), nil
	case "file":
		s, err := iomodel.NewTempFileStoreIO(c.BlockSize, c.CacheBlocks, iomodel.IOOptions{Mode: c.IOMode})
		if err != nil {
			return nil, err
		}
		s.ConfigureSubmission(c.IOMode, c.writebackWorkers())
		return s, nil
	case "latency":
		lcfg := iomodel.LatencyConfig{Seek: c.SeekDelay, Transfer: c.TransferDelay}
		if c.DeviceProfile != "" {
			var err error
			if lcfg, err = iomodel.DeviceProfileIO(c.DeviceProfile, c.IOMode); err != nil {
				return nil, err
			}
		}
		return iomodel.NewLatencyStore(iomodel.NewMemStore(c.BlockSize), lcfg), nil
	default:
		return nil, fmt.Errorf("%w %q (want mem, file or latency)", ErrUnknownBackend, c.Backend)
	}
}

// validateBeta enforces the Theorem 2 constraint after defaults applied.
func (c Config) validateBeta() error {
	if c.Beta < 2 || c.Beta > c.BlockSize {
		return fmt.Errorf("%w: Beta=%d, BlockSize=%d", ErrBetaRange, c.Beta, c.BlockSize)
	}
	return nil
}

// validateGamma enforces the logarithmic-method constraint after
// defaults applied.
func (c Config) validateGamma() error {
	if c.Gamma < 2 {
		return fmt.Errorf("%w: Gamma=%d", ErrGammaRange, c.Gamma)
	}
	return nil
}

// validateFor runs the structure-specific parameter checks.
func (c Config) validateFor(structure string) error {
	if err := c.validateBlockSize(); err != nil {
		return err
	}
	if !iomodel.ValidIOMode(c.IOMode) {
		return fmt.Errorf("%w %q (want buffered, odirect or uring)", ErrUnknownIOMode, c.IOMode)
	}
	switch structure {
	case "buffered":
		if err := c.validateBeta(); err != nil {
			return err
		}
		return c.validateGamma()
	case "logmethod":
		return c.validateGamma()
	}
	return nil
}

// base carries the model shared by all adapters.
type base struct {
	model *iomodel.Model
}

func (b base) Stats() Stats {
	c := b.model.Counters()
	return Stats{Reads: c.Reads, Writes: c.Writes, WriteBacks: c.WriteBacks}
}

func (b base) MemoryUsed() int64 { return b.model.Mem.Used() }

func (b base) Sync() error { return b.model.Disk.Store().Sync() }

func (b base) Flush() error { return b.model.Disk.Store().Sync() }

func (b base) StoreStats() StoreStats {
	if fs, ok := b.model.Disk.Store().(*iomodel.FileStore); ok {
		return fromFileStats(fs.Stats())
	}
	return StoreStats{}
}

// tableAdapter is a structure adapter plus the checkpoint hook the
// durability layer serializes it through and the bucket-order scan
// hooks the engine's Scan pages over.
type tableAdapter interface {
	Table
	saveState(e *ckpt.Encoder)
	scanBuckets() int
	scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int)
}

// Structures lists the constructor names accepted by Open.
func Structures() []string {
	return []string{"buffered", "logmethod", "knuth", "linprobe", "extendible", "linear", "twolevel"}
}

// canonicalStructure folds the name aliases Open accepts onto the
// Structures entries; it returns "" for unknown names.
func canonicalStructure(name string) string {
	switch name {
	case "buffered", "core":
		return "buffered"
	case "logmethod":
		return "logmethod"
	case "knuth", "chainhash":
		return "knuth"
	case "linprobe":
		return "linprobe"
	case "extendible", "exthash":
		return "extendible"
	case "linear", "linhash":
		return "linear"
	case "twolevel":
		return "twolevel"
	default:
		return ""
	}
}

// Open constructs a table by structure name; see Structures. With the
// durable file backend (Backend "file" and a named Path), Open reopens
// an existing table at Path — recovering its checkpoint and replaying
// its write-ahead log — and creates a fresh durable table otherwise.
func Open(structure string, cfg Config) (Table, error) {
	canonical := canonicalStructure(structure)
	if canonical == "" {
		return nil, fmt.Errorf("extbuf: unknown structure %q (want one of %v)", structure, Structures())
	}
	return open(canonical, cfg)
}

// New returns the paper's Theorem 2 buffered hash table: o(1) amortized
// insertions with lookups in 1 + O(1/Beta) I/Os. It returns ErrBetaRange
// or ErrGammaRange for parameters outside the paper's preconditions.
func New(cfg Config) (Table, error) { return open("buffered", cfg) }

// NewLogMethod returns the Lemma 5 logarithmic-method table: o(1)
// amortized insertions with O(log_gamma(n/m)) lookups. It returns
// ErrGammaRange for growth factors below 2.
func NewLogMethod(cfg Config) (Table, error) { return open("logmethod", cfg) }

// NewKnuth returns the classical external chaining table sized for
// cfg.ExpectedItems at load factor 1/2: ~1 I/O lookups and inserts.
func NewKnuth(cfg Config) (Table, error) { return open("knuth", cfg) }

// NewLinearProbing returns the block-level linear probing baseline.
func NewLinearProbing(cfg Config) (Table, error) { return open("linprobe", cfg) }

// NewExtendible returns the extendible hashing baseline (Fagin et al.).
// Its in-memory directory needs Theta(n/b) words; size MemoryWords
// accordingly (the constructor cannot know the final n).
func NewExtendible(cfg Config) (Table, error) { return open("extendible", cfg) }

// NewLinear returns the linear hashing baseline (Litwin).
func NewLinear(cfg Config) (Table, error) { return open("linear", cfg) }

// NewTwoLevel returns the Jensen–Pagh-style high-load table sized for
// cfg.ExpectedItems at load factor 1 - 1/sqrt(b).
func NewTwoLevel(cfg Config) (Table, error) { return open("twolevel", cfg) }

// open is the single construction path behind Open and the New*
// wrappers: validate, build the backend, construct or recover the
// structure, and wrap the result in the close guard.
func open(structure string, cfg Config) (Table, error) {
	if cfg.Crash != nil && !cfg.durable() {
		return nil, fmt.Errorf("extbuf: Crash injection requires the durable file backend (Backend \"file\" with a named Path)")
	}
	if cfg.durable() {
		// Defaults are applied inside openDurable, after the superblock
		// merge: a reopen with zero-valued fields adopts the stored
		// parameters rather than colliding with the defaults.
		idx := expiry.New()
		t, err := openDurable(structure, cfg, idx)
		if err != nil {
			return nil, err
		}
		return &guard{t: t, durable: true, exp: idx, now: cfg.clock()}, nil
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateFor(structure); err != nil {
		return nil, err
	}
	store, err := cfg.store()
	if err != nil {
		return nil, err
	}
	model := iomodel.NewModelOn(store, cfg.MemoryWords)
	fn := hashfn.Family(cfg.HashFamily, cfg.Seed)
	inner, err := buildAdapter(structure, model, fn, cfg)
	if err != nil {
		model.Close()
		return nil, err
	}
	return &guard{t: inner, exp: expiry.New(), now: cfg.clock()}, nil
}

// buildAdapter constructs a fresh structure of the given canonical name
// on the model.
func buildAdapter(structure string, model *iomodel.Model, fn hashfn.Fn, cfg Config) (tableAdapter, error) {
	switch structure {
	case "buffered":
		t, err := core.New(model, fn, core.Config{Beta: cfg.Beta, Gamma: cfg.Gamma})
		if err != nil {
			return nil, err
		}
		return &coreTable{base{model}, t}, nil
	case "logmethod":
		t, err := logmethod.New(model, fn, logmethod.Config{Gamma: cfg.Gamma})
		if err != nil {
			return nil, err
		}
		return &logTable{base{model}, t}, nil
	case "knuth":
		nb := 2 * cfg.ExpectedItems / cfg.BlockSize
		if nb < 2 {
			nb = 2
		}
		t, err := chainhash.New(model, fn, nb)
		if err != nil {
			return nil, err
		}
		t.SetMaxLoad(0.75)
		return &chainTable{base{model}, t}, nil
	case "linprobe":
		nb := 2 * cfg.ExpectedItems / cfg.BlockSize
		if nb < 2 {
			nb = 2
		}
		t, err := linprobe.New(model, fn, nb)
		if err != nil {
			return nil, err
		}
		t.SetMaxLoad(0.7)
		return &probeTable{base{model}, t}, nil
	case "extendible":
		t, err := exthash.New(model, fn, 2)
		if err != nil {
			return nil, err
		}
		return &extTable{base{model}, t}, nil
	case "linear":
		t, err := linhash.New(model, fn, 2)
		if err != nil {
			return nil, err
		}
		return &linTable{base{model}, t}, nil
	case "twolevel":
		t, err := twolevel.New(model, fn, twolevel.HomeBucketsFor(cfg.ExpectedItems, cfg.BlockSize))
		if err != nil {
			return nil, err
		}
		return &twoTable{base{model}, t}, nil
	default:
		return nil, fmt.Errorf("extbuf: unknown structure %q (want one of %v)", structure, Structures())
	}
}

// restoreAdapter rebuilds a structure of the given canonical name from
// a checkpoint state payload, on a model whose store already holds the
// checkpointed blocks.
func restoreAdapter(structure string, model *iomodel.Model, fn hashfn.Fn, d *ckpt.Decoder) (tableAdapter, error) {
	switch structure {
	case "buffered":
		t, err := core.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &coreTable{base{model}, t}, nil
	case "logmethod":
		t, err := logmethod.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &logTable{base{model}, t}, nil
	case "knuth":
		t, err := chainhash.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &chainTable{base{model}, t}, nil
	case "linprobe":
		t, err := linprobe.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &probeTable{base{model}, t}, nil
	case "extendible":
		t, err := exthash.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &extTable{base{model}, t}, nil
	case "linear":
		t, err := linhash.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &linTable{base{model}, t}, nil
	case "twolevel":
		t, err := twolevel.Restore(model, fn, d)
		if err != nil {
			return nil, err
		}
		return &twoTable{base{model}, t}, nil
	default:
		return nil, fmt.Errorf("extbuf: unknown structure %q in superblock", structure)
	}
}

type coreTable struct {
	base
	t *core.Table
}

func (c *coreTable) Insert(key, val uint64) error {
	_, err := c.t.Insert(key, val)
	return err
}
func (c *coreTable) Upsert(key, val uint64) error {
	_, err := c.t.Upsert(key, val)
	return err
}
func (c *coreTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := c.t.Lookup(key)
	return v, ok
}
func (c *coreTable) Delete(key uint64) bool {
	ok, _ := c.t.Delete(key)
	return ok
}
func (c *coreTable) compareSwap(key, old, new uint64) (bool, error) {
	swapped, _ := c.t.CompareSwap(key, old, new)
	return swapped, nil
}
func (c *coreTable) Len() int { return c.t.Len() }
func (c *coreTable) Close() error {
	c.t.Close()
	return c.model.Close()
}
func (c *coreTable) saveState(e *ckpt.Encoder) { c.t.SaveState(e) }
func (c *coreTable) scanBuckets() int          { return c.t.ScanBuckets() }
func (c *coreTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return c.t.ScanBucket(i, buf)
}

type logTable struct {
	base
	t *logmethod.Table
}

func (l *logTable) Insert(key, val uint64) error {
	_, err := l.t.Insert(key, val)
	return err
}
func (l *logTable) Upsert(key, val uint64) error { return l.Insert(key, val) }
func (l *logTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := l.t.Lookup(key)
	return v, ok
}
func (l *logTable) Delete(key uint64) bool {
	ok, _ := l.t.Delete(key)
	return ok
}
func (l *logTable) Len() int { return l.t.Len() }
func (l *logTable) Close() error {
	l.t.Close()
	return l.model.Close()
}
func (l *logTable) saveState(e *ckpt.Encoder) { l.t.SaveState(e) }
func (l *logTable) scanBuckets() int          { return l.t.ScanBuckets() }
func (l *logTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return l.t.ScanBucket(i, buf)
}

type chainTable struct {
	base
	t *chainhash.Table
}

func (c *chainTable) Insert(key, val uint64) error { c.t.Insert(key, val); return nil }
func (c *chainTable) Upsert(key, val uint64) error { return c.Insert(key, val) }
func (c *chainTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := c.t.Lookup(key)
	return v, ok
}
func (c *chainTable) Delete(key uint64) bool {
	ok, _ := c.t.Delete(key)
	return ok
}
func (c *chainTable) Len() int { return c.t.Len() }
func (c *chainTable) Close() error {
	c.t.Close()
	return c.model.Close()
}
func (c *chainTable) saveState(e *ckpt.Encoder) { c.t.SaveState(e) }
func (c *chainTable) scanBuckets() int          { return c.t.ScanBuckets() }
func (c *chainTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return c.t.ScanBucket(i, buf)
}

type probeTable struct {
	base
	t *linprobe.Table
}

func (p *probeTable) Insert(key, val uint64) error {
	_, err := p.t.Insert(key, val)
	return err
}
func (p *probeTable) Upsert(key, val uint64) error { return p.Insert(key, val) }
func (p *probeTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := p.t.Lookup(key)
	return v, ok
}
func (p *probeTable) Delete(key uint64) bool {
	ok, _ := p.t.Delete(key)
	return ok
}
func (p *probeTable) Len() int { return p.t.Len() }
func (p *probeTable) Close() error {
	p.t.Close()
	return p.model.Close()
}
func (p *probeTable) saveState(e *ckpt.Encoder) { p.t.SaveState(e) }
func (p *probeTable) scanBuckets() int          { return p.t.ScanBuckets() }
func (p *probeTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return p.t.ScanBucket(i, buf)
}

type extTable struct {
	base
	t *exthash.Table
}

func (e *extTable) Insert(key, val uint64) error { e.t.Insert(key, val); return nil }
func (e *extTable) Upsert(key, val uint64) error { return e.Insert(key, val) }
func (e *extTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := e.t.Lookup(key)
	return v, ok
}
func (e *extTable) Delete(key uint64) bool {
	ok, _ := e.t.Delete(key)
	return ok
}
func (e *extTable) Len() int { return e.t.Len() }
func (e *extTable) Close() error {
	e.t.Close()
	return e.model.Close()
}
func (e *extTable) saveState(enc *ckpt.Encoder) { e.t.SaveState(enc) }
func (e *extTable) scanBuckets() int            { return e.t.ScanBuckets() }
func (e *extTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return e.t.ScanBucket(i, buf)
}

type linTable struct {
	base
	t *linhash.Table
}

func (l *linTable) Insert(key, val uint64) error { l.t.Insert(key, val); return nil }
func (l *linTable) Upsert(key, val uint64) error { return l.Insert(key, val) }
func (l *linTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := l.t.Lookup(key)
	return v, ok
}
func (l *linTable) Delete(key uint64) bool {
	ok, _ := l.t.Delete(key)
	return ok
}
func (l *linTable) Len() int { return l.t.Len() }
func (l *linTable) Close() error {
	l.t.Close()
	return l.model.Close()
}
func (l *linTable) saveState(e *ckpt.Encoder) { l.t.SaveState(e) }
func (l *linTable) scanBuckets() int          { return l.t.ScanBuckets() }
func (l *linTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return l.t.ScanBucket(i, buf)
}

type twoTable struct {
	base
	t *twolevel.Table
}

func (w *twoTable) Insert(key, val uint64) error { w.t.Insert(key, val); return nil }
func (w *twoTable) Upsert(key, val uint64) error { return w.Insert(key, val) }
func (w *twoTable) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := w.t.Lookup(key)
	return v, ok
}
func (w *twoTable) Delete(key uint64) bool {
	ok, _ := w.t.Delete(key)
	return ok
}
func (w *twoTable) Len() int { return w.t.Len() }
func (w *twoTable) Close() error {
	w.t.Close()
	return w.model.Close()
}
func (w *twoTable) saveState(e *ckpt.Encoder) { w.t.SaveState(e) }
func (w *twoTable) scanBuckets() int          { return w.t.ScanBuckets() }
func (w *twoTable) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return w.t.ScanBucket(i, buf)
}

// guard enforces the close contract around every table returned by the
// constructors: operations on a closed table fail with ErrClosed (or
// zero results from the non-error methods) and a second Close reports
// ErrClosed instead of panicking on released resources. Stats stays
// readable after Close so experiments can harvest counters last.
type guard struct {
	t       Table
	durable bool
	closed  bool
	ship    ShipFunc // replication seam; see Engine.SetShip

	// TTL sidecar (see ttl.go): the expiry index, the millisecond clock
	// it is read against, reusable sweep/scan scratch, and counters.
	// Shared with the durable layer, which fills the index during WAL
	// replay and persists it at every checkpoint.
	exp      *expiry.Index
	now      func() uint64
	sweepBuf []uint64
	scanBuf  []iomodel.Entry
	expStats ExpiryStats
}

// insertOne applies one insert and clears the key's TTL — any plain
// value write makes a key persistent again (Redis semantics), which is
// also what keeps replicas convergent: the shipped record is a plain
// insert/upsert and clears the TTL there too.
func (g *guard) insertOne(key, val uint64) error {
	if err := g.t.Insert(key, val); err != nil {
		return err
	}
	g.exp.Clear(key)
	return nil
}

// upsertOne applies one upsert and clears the key's TTL; see insertOne.
func (g *guard) upsertOne(key, val uint64) error {
	if err := g.t.Upsert(key, val); err != nil {
		return err
	}
	g.exp.Clear(key)
	return nil
}

// deleteOne applies one delete and clears the key's TTL. Deleting a
// key that has already expired (but not yet been swept) still removes
// it physically, but reports a miss — the key was logically absent.
func (g *guard) deleteOne(key uint64) bool {
	expired := g.expired(key)
	ok := g.t.Delete(key)
	g.exp.Clear(key)
	return ok && !expired
}

// expired reports whether key's deadline has passed. The deadline map
// read comes first so keys without a TTL — the hot path — never pay
// the clock read.
func (g *guard) expired(key uint64) bool {
	d, ok := g.exp.Deadline(key)
	return ok && d <= g.now()
}

func (g *guard) Insert(key, val uint64) error {
	if g.closed {
		return ErrClosed
	}
	return g.insertOne(key, val)
}

func (g *guard) Upsert(key, val uint64) error {
	if g.closed {
		return ErrClosed
	}
	return g.upsertOne(key, val)
}

func (g *guard) Lookup(key uint64) (uint64, bool) {
	if g.closed {
		return 0, false
	}
	if g.expired(key) {
		// Lazy expiry: the key is dead the instant its deadline passes,
		// without waiting for the sweep to delete it physically.
		g.expStats.LazyHits++
		return 0, false
	}
	return g.t.Lookup(key)
}

func (g *guard) Delete(key uint64) bool {
	if g.closed {
		return false
	}
	return g.deleteOne(key)
}

func (g *guard) Len() int {
	if g.closed {
		return 0
	}
	return g.t.Len()
}

func (g *guard) Stats() Stats { return g.t.Stats() }

func (g *guard) StoreStats() StoreStats { return g.t.StoreStats() }

func (g *guard) MemoryUsed() int64 { return g.t.MemoryUsed() }

func (g *guard) Sync() error {
	if g.closed {
		return ErrClosed
	}
	return g.t.Sync()
}

// beginSync is Sync with the fsync split off for the caller to run
// elsewhere (durableTable.beginSync); tables without that split sync
// here and return a nil fsync.
func (g *guard) beginSync() (fsync func() error, err error) {
	if g.closed {
		return nil, ErrClosed
	}
	if d, ok := g.t.(*durableTable); ok {
		return d.beginSync()
	}
	return nil, g.t.Sync()
}

func (g *guard) Flush() error {
	if g.closed {
		return ErrClosed
	}
	return g.t.Flush()
}

func (g *guard) Close() error {
	if g.closed {
		return ErrClosed
	}
	g.closed = true
	return g.t.Close()
}

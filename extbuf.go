package extbuf

import (
	"errors"
	"fmt"

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
// log's spill and fsync counts. The mem backend has no real costs and
// reports zeros. The serving layer exposes this struct
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
	FlushedFrames   int64 // dirty frames written back (flush barriers + eviction batches)
	FlushRuns       int64 // pwrites the flushed frames were batched into
	Fsyncs          int64 // fsyncs of the block file
	FsyncsElided    int64 // block-file barrier fsyncs skipped (nothing written since the last)
	GhostHits       int64 // faults of recently evicted blocks (scan-resistant promotions)
	WALSpills       int64 // write-ahead log spill writes (durable tables)
	WALFsyncs       int64 // write-ahead log fsyncs (durable tables)
	WALFsyncsElided int64 // write-ahead log barrier fsyncs skipped (durable tables)
	// Gauges, summed over shards like the counters; the wire's STATS
	// reply does not carry them.
	FileSlots int64 // block-file extent, in slots
	FreeSlots int64 // slots of that extent holding no block
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
	s.FileSlots += o.FileSlots
	s.FreeSlots += o.FreeSlots
	return s
}

// MergeStats counts the restructuring events of a buffered (Theorem 2)
// table; the baselines report zeros. It is a diagnostic beside Stats, not
// part of Engine: *Sharded and every table Open returns have a
// MergeStats() method (on a closed engine it reports zeros).
type MergeStats struct {
	Merges         int64 // merges of the cascade into Ĥ, insert-triggered and read-paid alike
	Growths        int64 // doublings of Ĥ
	ReadPaidMerges int64 // the merges lookups bought (DESIGN.md §3a, "Read-paid merges")
	ReadDebt       int64 // I/Os lookups have spent in the cascade since the last merge
}

// Add returns s + o field-wise, for aggregating shards.
func (s MergeStats) Add(o MergeStats) MergeStats {
	s.Merges += o.Merges
	s.Growths += o.Growths
	s.ReadPaidMerges += o.ReadPaidMerges
	s.ReadDebt += o.ReadDebt
	return s
}

// fromFileStats maps the file backend's counter struct onto the public
// one.
func fromFileStats(st iomodel.FileStats) StoreStats {
	return StoreStats{
		ReadSyscalls:    st.ReadSyscalls,
		WriteSyscalls:   st.WriteSyscalls,
		CacheHits:       st.CacheHits,
		CacheMisses:     st.CacheMisses,
		BytesRead:       st.BytesRead,
		BytesWritten:    st.BytesWritten,
		Evictions:       st.Evictions,
		DirtyWritebacks: st.DirtyWritebacks,
		FlushedFrames:   st.FlushedFrames,
		FlushRuns:       st.FlushRuns,
		Fsyncs:          st.Fsyncs,
		FsyncsElided:    st.FsyncsElided,
		GhostHits:       st.GhostHits,
		FileSlots:       st.FileSlots,
		FreeSlots:       st.FreeSlots,
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
	// Lookup returns the value stored for key. It changes no content,
	// but on the buffered table it may restructure: once lookups have
	// spent, in the cascade levels behind Ĥ, the I/Os that merging those
	// levels into Ĥ costs, the lookup that tips the balance runs that
	// merge (MergeStats.ReadPaidMerges; DESIGN.md §3a), and lookups go
	// back to one probe each.
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
	// nil, every operation whose call completed before Sync was called
	// survives a crash — on a table driven from one goroutine, every
	// operation before it. A durable table (file backend with a named
	// Path) spills and fsyncs its write-ahead log — no checkpoint, no
	// block flush — so recovery replays the log against the last
	// checkpoint; the serving layer group-commits client acks behind
	// exactly this barrier. An Engine's Sync runs on its caller and
	// waits for no call still queued or running (Sharded.Sync). Scratch
	// tables degrade to a backend sync (a no-op in memory); a scratch
	// Engine has nothing to make durable and returns at once.
	Sync() error
	// Flush forces any state buffered by the storage backend down to
	// durable storage. For a durable table (file backend with a named
	// Path) this is the checkpoint barrier: it fsyncs the write-ahead
	// log, flushes dirty blocks, commits a checkpoint and empties the
	// log, so every operation submitted before Flush survives a crash
	// once it returns nil — and subsequent recovery pays no log replay.
	// For scratch backends it degrades to a backend sync (a no-op in
	// memory).
	Flush() error
	// StoreStats returns the real-cost counters of the table's storage
	// backend: the file backend's buffer-pool and syscall counters plus,
	// for a durable table, the write-ahead log's spill and fsync counts.
	// The mem backend, which has no real costs, reports zeros. Like
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
	// a real file behind a page cache. I/O counters are identical across
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

// ErrUnknownBackend is returned for Backend values other than "mem" and
// "file".
var ErrUnknownBackend = errors.New("extbuf: unknown backend")

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

// store builds the scratch (non-durable) block-store backend selected
// by c.Backend; durable file stores are opened by openDurable.
func (c Config) store() (iomodel.BlockStore, error) {
	switch c.Backend {
	case "", "mem":
		return iomodel.NewMemStore(c.BlockSize), nil
	case "file":
		s, err := iomodel.NewTempFileStore(c.BlockSize, c.CacheBlocks)
		if err != nil {
			return nil, err // not a typed-nil BlockStore
		}
		return s, nil
	default:
		return nil, fmt.Errorf("%w %q (want mem or file)", ErrUnknownBackend, c.Backend)
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

// structure is the method set the seven external hash tables share
// (internal/core, logmethod, chainhash, linprobe, exthash, linhash,
// twolevel): every operation reports the model I/Os it spent, which the
// adapter drops — the public counters come from the model itself.
type structure interface {
	Insert(key, val uint64) (ios int, err error)
	Lookup(key uint64) (val uint64, ok bool, ios int)
	Delete(key uint64) (ok bool, ios int)
	Len() int
	Close()
	SaveState(e *ckpt.Encoder)
	ScanBuckets() int
	ScanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int)
}

// readModifyWriter is the optional capability of a structure whose
// Insert is not already an upsert — the Theorem 2 table, whose Insert
// takes fresh keys only: Upsert and CompareSwap walk to the key's single
// live copy and rewrite it inside the block the lookup just read.
type readModifyWriter interface {
	Upsert(key, val uint64) (ios int, err error)
	CompareSwap(key, old, new uint64) (swapped bool, ios int)
}

// readPaidMerger is the optional capability of a structure whose lookups
// can buy a restructuring — the Theorem 2 table: Lookup itself is the
// paper's probe and changes nothing, but it keeps count of the I/Os it
// spends past Ĥ in the cascade, and MergeIfReadsPaid merges the cascade
// into Ĥ once they add up to what that merge costs (core's package
// comment has the rule and its 2x bound). The guard calls it after
// lookups, so a served table that stops being written stops paying one
// I/O per cascade level on every miss.
type readPaidMerger interface {
	MergeIfReadsPaid() (ios int, merged bool)
	Merges() int
	Growths() int
	ReadPaidMerges() int
	ReadDebt() int
}

// structures is the one table of constructors behind Open, in
// Structures() order: how each structure is built fresh and how it is
// restored from a checkpoint's state payload (on a model whose store
// already holds the checkpointed blocks). alias is the package-style name
// Open also accepts (the name again where there is none).
var structures = []struct {
	name, alias string
	build       func(*iomodel.Model, hashfn.Fn, Config) (structure, error)
	restore     func(*iomodel.Model, hashfn.Fn, *ckpt.Decoder) (structure, error)
}{
	{"buffered", "core", func(m *iomodel.Model, fn hashfn.Fn, cfg Config) (structure, error) {
		return lift(core.New(m, fn, core.Config{Beta: cfg.Beta, Gamma: cfg.Gamma}))
	}, restorer(core.Restore)},
	{"logmethod", "logmethod", func(m *iomodel.Model, fn hashfn.Fn, cfg Config) (structure, error) {
		return lift(logmethod.New(m, fn, logmethod.Config{Gamma: cfg.Gamma}))
	}, restorer(logmethod.Restore)},
	{"knuth", "chainhash", func(m *iomodel.Model, fn hashfn.Fn, cfg Config) (structure, error) {
		t, err := chainhash.New(m, fn, cfg.halfLoadBlocks())
		if err != nil {
			return nil, err
		}
		t.SetMaxLoad(0.75)
		return t, nil
	}, restorer(chainhash.Restore)},
	{"linprobe", "linprobe", func(m *iomodel.Model, fn hashfn.Fn, cfg Config) (structure, error) {
		t, err := linprobe.New(m, fn, cfg.halfLoadBlocks())
		if err != nil {
			return nil, err
		}
		t.SetMaxLoad(0.7)
		return t, nil
	}, restorer(linprobe.Restore)},
	{"extendible", "exthash", func(m *iomodel.Model, fn hashfn.Fn, _ Config) (structure, error) {
		return lift(exthash.New(m, fn, 2))
	}, restorer(exthash.Restore)},
	{"linear", "linhash", func(m *iomodel.Model, fn hashfn.Fn, _ Config) (structure, error) {
		return lift(linhash.New(m, fn, 2))
	}, restorer(linhash.Restore)},
	{"twolevel", "twolevel", func(m *iomodel.Model, fn hashfn.Fn, cfg Config) (structure, error) {
		return lift(twolevel.New(m, fn, twolevel.HomeBucketsFor(cfg.ExpectedItems, cfg.BlockSize)))
	}, restorer(twolevel.Restore)},
}

// lift widens a concrete structure to the interface, keeping a failed
// constructor's nil a nil interface.
func lift[T structure](t T, err error) (structure, error) {
	if err != nil {
		return nil, err
	}
	return t, nil
}

// restorer adapts a package's Restore function to the table's signature.
func restorer[T structure](restore func(*iomodel.Model, hashfn.Fn, *ckpt.Decoder) (T, error)) func(*iomodel.Model, hashfn.Fn, *ckpt.Decoder) (structure, error) {
	return func(m *iomodel.Model, fn hashfn.Fn, d *ckpt.Decoder) (structure, error) {
		return lift(restore(m, fn, d))
	}
}

// halfLoadBlocks sizes a fixed-capacity baseline for ExpectedItems at
// load factor 1/2.
func (c Config) halfLoadBlocks() int {
	return max(2, 2*c.ExpectedItems/c.BlockSize)
}

// Structures lists the constructor names accepted by Open.
func Structures() []string {
	names := make([]string, len(structures))
	for i, s := range structures {
		names[i] = s.name
	}
	return names
}

// Open constructs a table by structure name; see Structures. With the
// durable file backend (Backend "file" and a named Path), Open reopens
// an existing table at Path — recovering its checkpoint and replaying
// its write-ahead log — and creates a fresh durable table otherwise.
func Open(structure string, cfg Config) (Table, error) { return asTable(open(structure, cfg)) }

// New returns the paper's Theorem 2 buffered hash table: o(1) amortized
// insertions with lookups in 1 + O(1/Beta) I/Os. It returns ErrBetaRange
// or ErrGammaRange for parameters outside the paper's preconditions.
func New(cfg Config) (Table, error) { return Open("buffered", cfg) }

// NewLogMethod returns the Lemma 5 logarithmic-method table: o(1)
// amortized insertions with O(log_gamma(n/m)) lookups. It returns
// ErrGammaRange for growth factors below 2.
func NewLogMethod(cfg Config) (Table, error) { return Open("logmethod", cfg) }

// NewKnuth returns the classical external chaining table sized for
// cfg.ExpectedItems at load factor 1/2: ~1 I/O lookups and inserts.
func NewKnuth(cfg Config) (Table, error) { return Open("knuth", cfg) }

// NewLinearProbing returns the block-level linear probing baseline.
func NewLinearProbing(cfg Config) (Table, error) { return Open("linprobe", cfg) }

// NewExtendible returns the extendible hashing baseline (Fagin et al.).
// Its in-memory directory needs Theta(n/b) words; size MemoryWords
// accordingly (the constructor cannot know the final n).
func NewExtendible(cfg Config) (Table, error) { return Open("extendible", cfg) }

// NewLinear returns the linear hashing baseline (Litwin).
func NewLinear(cfg Config) (Table, error) { return Open("linear", cfg) }

// NewTwoLevel returns the Jensen–Pagh-style high-load table sized for
// cfg.ExpectedItems at load factor 1 - 1/sqrt(b).
func NewTwoLevel(cfg Config) (Table, error) { return Open("twolevel", cfg) }

// asTable returns an opened guard as a Table, keeping a failed open's
// nil a nil interface.
func asTable(g *guard, err error) (Table, error) {
	if err != nil {
		return nil, err
	}
	return g, nil
}

// open is the single construction path behind Open, the New* wrappers
// and NewSharded: resolve the name, validate, build the backend,
// construct or recover the structure, and wrap the result in the guard.
func open(name string, cfg Config) (*guard, error) {
	kind := -1
	for i, s := range structures {
		if name == s.name || name == s.alias {
			kind = i
			break
		}
	}
	if kind < 0 {
		return nil, fmt.Errorf("extbuf: unknown structure %q (want one of %v)", name, Structures())
	}
	if cfg.Crash != nil && !cfg.durable() {
		return nil, fmt.Errorf("extbuf: Crash injection requires the durable file backend (Backend \"file\" with a named Path)")
	}
	if cfg.durable() {
		// Defaults are applied inside openDurable, after the superblock
		// merge: a reopen with zero-valued fields adopts the stored
		// parameters rather than colliding with the defaults.
		idx := expiry.New()
		t, err := openDurable(kind, cfg, idx)
		if err != nil {
			return nil, err
		}
		return newGuard(t, t.log, idx, cfg.clock()), nil
	}
	cfg = cfg.withDefaults()
	if err := cfg.validateFor(structures[kind].name); err != nil {
		return nil, err
	}
	store, err := cfg.store()
	if err != nil {
		return nil, err
	}
	model := iomodel.NewModelOn(store, cfg.MemoryWords)
	inner, err := newAdapter(kind, model, hashfn.Family(cfg.HashFamily, cfg.Seed), cfg, nil)
	if err != nil {
		return nil, err
	}
	return newGuard(inner, nil, expiry.New(), cfg.clock()), nil
}

// adapter presents a structure running on a model as a Table: it drops
// the per-operation I/O counts, reads the public counters off the model,
// and states once that the six baselines' Insert is already an upsert.
type adapter struct {
	model *iomodel.Model
	s     structure
	rmw   readModifyWriter // nil for the baselines
	reads readPaidMerger   // nil for the baselines
}

// newAdapter builds structure number kind on the model — fresh, or from
// a checkpoint's state payload when d is non-nil. It closes the model if
// the structure cannot be built.
func newAdapter(kind int, model *iomodel.Model, fn hashfn.Fn, cfg Config, d *ckpt.Decoder) (*adapter, error) {
	var s structure
	var err error
	if d != nil {
		s, err = structures[kind].restore(model, fn, d)
	} else {
		s, err = structures[kind].build(model, fn, cfg)
	}
	if err != nil {
		model.Close()
		return nil, err
	}
	a := &adapter{model: model, s: s}
	a.rmw, _ = s.(readModifyWriter)
	a.reads, _ = s.(readPaidMerger)
	return a, nil
}

func (a *adapter) Insert(key, val uint64) error {
	_, err := a.s.Insert(key, val)
	return err
}

func (a *adapter) Upsert(key, val uint64) error {
	if a.rmw == nil {
		return a.Insert(key, val)
	}
	_, err := a.rmw.Upsert(key, val)
	return err
}

func (a *adapter) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := a.s.Lookup(key)
	return v, ok
}

// settleReads lets the lookups served so far buy the merge they have
// paid for, on a structure that sells one.
func (a *adapter) settleReads() {
	if a.reads != nil {
		a.reads.MergeIfReadsPaid()
	}
}

func (a *adapter) mergeStats() MergeStats {
	if a.reads == nil {
		return MergeStats{}
	}
	return MergeStats{
		Merges:         int64(a.reads.Merges()),
		Growths:        int64(a.reads.Growths()),
		ReadPaidMerges: int64(a.reads.ReadPaidMerges()),
		ReadDebt:       int64(a.reads.ReadDebt()),
	}
}

func (a *adapter) Delete(key uint64) bool {
	ok, _ := a.s.Delete(key)
	return ok
}

// compareSwap is one probe where the structure has a read-modify-write
// walk, and a full Lookup then a full Upsert where it has not.
func (a *adapter) compareSwap(key, old, new uint64) (bool, error) {
	if a.rmw == nil {
		return casByLookup(a, key, old, new)
	}
	swapped, _ := a.rmw.CompareSwap(key, old, new)
	return swapped, nil
}

// casByLookup is compare-and-swap for tables without a one-probe form.
func casByLookup(t Table, key, old, new uint64) (bool, error) {
	if v, ok := t.Lookup(key); !ok || v != old {
		return false, nil
	}
	if err := t.Upsert(key, new); err != nil {
		return false, err
	}
	return true, nil
}

func (a *adapter) Len() int { return a.s.Len() }

func (a *adapter) Stats() Stats {
	c := a.model.Counters()
	return Stats{Reads: c.Reads, Writes: c.Writes, WriteBacks: c.WriteBacks}
}

func (a *adapter) MemoryUsed() int64 { return a.model.Mem.Used() }

func (a *adapter) Sync() error { return a.model.Disk.Store().Sync() }

func (a *adapter) Flush() error { return a.Sync() }

func (a *adapter) StoreStats() StoreStats {
	if fs, ok := a.model.Disk.Store().(*iomodel.FileStore); ok {
		return fromFileStats(fs.Stats())
	}
	return StoreStats{}
}

func (a *adapter) Close() error {
	a.s.Close()
	return a.model.Close()
}

func (a *adapter) scanBuckets() int { return a.s.ScanBuckets() }

func (a *adapter) scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return a.s.ScanBucket(i, buf)
}

// Package core implements the paper's constructive contribution: the
// dynamic hash table of Theorem 2 of Wei, Yi, Zhang, "Dynamic External
// Hashing: The Limit of Buffering" (SPAA 2009), together with the staged
// buffering strategy used to trace the paper's lower-bound frontier
// (Theorem 1) empirically.
//
// # The Theorem 2 structure
//
// The structure bootstraps the logarithmic method (Lemma 5, package
// logmethod) to push almost all items into one big external hash table
// Ĥ whose lookups cost ~1 I/O:
//
//   - New items enter the logarithmic cascade (memory table H_0 plus
//     geometrically growing disk tables).
//   - Every time the cascade accumulates a 1/beta fraction of Ĥ's size,
//     its entire contents are merged into Ĥ by sequential scans and the
//     cascade is cleared. Ĥ therefore always holds at least a 1 - 1/beta
//     fraction of all items.
//   - When Ĥ's load factor reaches 1/2 its bucket count doubles via one
//     sequential rebuild (top-bit addressing splits every bucket into two
//     adjacent buckets), which is the paper's round transition: in round
//     i the size of Ĥ goes from 2^(i-1)·m to 2^i·m.
//
// Lookups probe H_0 (free), then Ĥ (~1 I/O), then the cascade's disk
// levels largest-first — the order behind the paper's cost computation
//
//	(1 + 1/2^Ω(b)) · (1·(1-1/β) + (1/β)·(2·1/2 + 3·1/4 + ...)) = 1 + O(1/β).
//
// With beta = b^c (c < 1 constant) and gamma = 2, Theorem 2 gives
// amortized insertion cost O(b^(c-1)) = o(1) I/Os and expected average
// successful lookups in 1 + O(1/b^c) I/Os; with beta = (eps/(2c'))·b the
// insertion cost is eps for lookups in 1 + O(1/b). Both parameterizations
// are exercised by the benchmarks.
//
// # API contract: one copy, one probe order
//
// Insert requires a key not currently in the table (the paper's model:
// n distinct uniform items). That keeps the invariant every point
// operation stands on: at most one copy of a key is alive across H_0, Ĥ
// and the cascade levels (merges move a copy, they never duplicate it).
//
// Given the invariant, every point operation is the same probe sequence
// — H_0 (free), Ĥ, cascade levels largest-first — stopping at the first
// copy, because it is the only one. Lookup reads it; Upsert and
// CompareSwap rewrite it in the block just read, under the footnote-2
// free write-back, so they cost exactly the lookup of their key (Upsert
// of an absent key adds the Insert); Delete (an extension; the paper
// studies insertions) removes it there, paying beyond the lookup only
// the backfill of a multi-block chain. None of them visits a component
// past the hit, so an Insert of a present key is a contract violation
// that is no longer papered over: the stale copy it strands survives a
// later Delete of the fresh one. Copies audits the invariant.
//
// # Read-paid merges
//
// The paper merges the cascade on a schedule of insertions only, so a
// table that stops being written keeps whatever cascade it has, and every
// lookup that misses Ĥ — every absent key, and the 1/β share of present
// ones — keeps paying one I/O per occupied level. MergeIfReadsPaid is the
// rent-or-buy answer, for callers that serve reads (package extbuf; the
// experiments never call it and reproduce the paper's schedule exactly).
// Lookup adds the I/Os it spends in the cascade's disk levels — the part
// after the Ĥ probe — to a read debt; when the debt reaches
// mergeCostEstimate, what absorbing the cascade into Ĥ would cost right
// now, MergeIfReadsPaid runs that merge, after which lookups cost their
// single Ĥ probe again. Every merge, whoever triggers it, zeroes the debt.
//
// The rule is 2-competitive: a read-paid merge runs only once lookups
// have already spent its estimated price on probes the merge would have
// saved, so the merge I/O the rule adds never exceeds the cascade I/O
// the same run's lookups paid (up to the estimate's slack, which tests
// bound by mergeCostSlack), and the total is at most twice what the run
// costs without the rule. Theorem 1's insertion bound is untouched:
// under interleaved inserts the extra merges surface as t_u, which is
// the paper's t_q/t_u trade, its point chosen online from the operations
// observed instead of by β alone. Only pure lookups accrue debt:
// Upsert, CompareSwap and Delete walk the same levels but are writes,
// and stay on the paper's insert-driven schedule.
package core

import (
	"fmt"

	"extbuf/internal/chainhash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/logmethod"
)

// Config parametrizes the Theorem 2 structure.
type Config struct {
	// Beta is the paper's merge parameter: the cascade is merged into Ĥ
	// every |Ĥ|/Beta insertions, so Ĥ holds a 1 - 1/Beta fraction of all
	// items and successful lookups cost 1 + O(1/Beta). Must satisfy
	// 2 <= Beta <= b. Setting Beta = b^c for a constant c < 1 yields the
	// first form of Theorem 2.
	Beta int
	// Gamma is the cascade's growth factor (>= 2, rounded to a power of
	// two). Theorem 2 sets Gamma = 2.
	Gamma int
	// H0Cap overrides the cascade's in-memory buffer capacity in items;
	// zero selects m/4.
	H0Cap int
}

// Table is the Theorem 2 dynamic hash table. Not safe for concurrent
// use.
type Table struct {
	model   *iomodel.Model
	fn      hashfn.Fn
	big     *chainhash.Table // Ĥ
	cascade *logmethod.Table // H_0, H_1, ... of the logarithmic method
	beta    int
	merges  int // cascade-into-Ĥ merge events
	growths int // Ĥ doubling events

	// Read-paid merges (see the package comment): the I/Os Lookup has
	// spent in the cascade's disk levels since the last merge, and how
	// many of the merges were bought with them. Neither is checkpointed:
	// a reopened table starts with no debt.
	readDebt       int
	readPaidMerges int

	collectBuf []iomodel.Entry // mergeCascade's scratch, reused across merges
}

// New returns an empty Theorem 2 table on the model.
func New(model *iomodel.Model, fn hashfn.Fn, cfg Config) (*Table, error) {
	beta := cfg.Beta
	if beta < 2 {
		beta = 2
	}
	if beta > model.B() {
		return nil, fmt.Errorf("core: beta %d exceeds block size %d (paper requires 2 <= beta <= b)", beta, model.B())
	}
	// Ĥ starts sized for the first m items at load 1/2.
	nb := hashfn.CeilPow2(int(2*model.MWords()) / model.B())
	if nb < 2 {
		nb = 2
	}
	big, err := chainhash.New(model, fn, nb)
	if err != nil {
		return nil, fmt.Errorf("core: big table: %w", err)
	}
	cascade, err := logmethod.New(model, fn, logmethod.Config{Gamma: cfg.Gamma, H0Cap: cfg.H0Cap})
	if err != nil {
		big.Close()
		return nil, fmt.Errorf("core: cascade: %w", err)
	}
	return &Table{
		model:   model,
		fn:      fn,
		big:     big,
		cascade: cascade,
		beta:    beta,
	}, nil
}

// Beta returns the merge parameter.
func (t *Table) Beta() int { return t.beta }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.big.Len() + t.cascade.Len() }

// BigLen returns the number of entries in Ĥ.
func (t *Table) BigLen() int { return t.big.Len() }

// CascadeLen returns the number of entries in the logarithmic cascade.
func (t *Table) CascadeLen() int { return t.cascade.Len() }

// Merges returns the number of cascade-into-Ĥ merges performed.
func (t *Table) Merges() int { return t.merges }

// Growths returns the number of Ĥ doublings performed.
func (t *Table) Growths() int { return t.growths }

// BigFraction returns the fraction of items resident in Ĥ; the paper
// guarantees >= 1 - 1/beta (up to the current merge window).
func (t *Table) BigFraction() float64 {
	n := t.Len()
	if n == 0 {
		return 1
	}
	return float64(t.big.Len()) / float64(n)
}

// window returns the merge window: the cascade size that triggers a
// merge into Ĥ. The paper uses 2^(i-1)·m/beta in round i, i.e. |Ĥ|/beta;
// max(m, ·) makes the first window the initial dump of m items.
func (t *Table) window() int {
	w := t.big.Len()
	if mw := int(t.model.MWords()); w < mw {
		w = mw
	}
	w /= t.beta
	if w < 1 {
		w = 1
	}
	return w
}

// Insert stores (key, val) and returns the I/Os spent (zero for most
// inserts; merge costs are charged to the insert that triggers them and
// amortize to O(beta/b + (gamma/b)·log(n/m)) per insertion).
//
// The key must not already be present (see the package contract); use
// Upsert for read-modify-write semantics. Inserting a present key
// creates a second live copy, and nothing sweeps it up: Lookup, Upsert,
// CompareSwap and Delete all stop at the first copy they meet, so a
// later Delete would remove one and leave the other to resurface.
func (t *Table) Insert(key, val uint64) (int, error) {
	ios, err := t.cascade.Insert(key, val)
	if err != nil {
		return ios, err
	}
	if t.cascade.Len() >= t.window() {
		ios += t.mergeCascade()
	}
	return ios, nil
}

// mergeCascade absorbs the entire cascade into Ĥ and clears it, then
// doubles Ĥ if the merge pushed its load factor past 1/2. The one-copy
// contract makes the collect a plain concatenation of the levels.
func (t *Table) mergeCascade() int {
	entries, ios := t.cascade.CollectAllUnique(t.collectBuf[:0])
	ios += t.big.MergeIn(entries)
	t.collectBuf = entries[:0]
	t.cascade.Clear()
	t.merges++
	t.readDebt = 0
	for t.big.Fill() > 0.5 {
		ios += t.big.Grow()
		t.growths++
	}
	return ios
}

// Flush forces a cascade merge regardless of the window, returning the
// I/Os spent. Useful before bulk read phases and in tests.
func (t *Table) Flush() int {
	if t.cascade.Len() == 0 {
		return 0
	}
	return t.mergeCascade()
}

// Lookup returns the value for key and the I/Os spent, probing H_0
// (free), then Ĥ, then the cascade levels largest-first. It is the
// paper's probe and never restructures the table; the I/Os of its last
// step accrue as read debt, which only MergeIfReadsPaid acts on.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	if v, hit := t.cascade.LookupMem(key); hit {
		return v, true, 0
	}
	v, hit, c := t.big.Lookup(key)
	ios += c
	if hit {
		return v, true, ios
	}
	v, hit, c = t.cascade.LookupLevelsLargestFirst(key)
	t.readDebt += c
	ios += c
	return v, hit, ios
}

// mergeCostSlack bounds what a read-paid merge really costs against
// mergeCostEstimate: at most mergeCostSlack times the estimate. The
// estimate is exact for the collect and for one read per touched Ĥ
// bucket; what it leaves out are Ĥ's overflow blocks — a 1/2^Ω(b)
// share of buckets at fill <= 1/2 — so the true ratio sits just above 1.
const mergeCostSlack = 2

// mergeCostEstimate prices mergeCascade as of now, from memory-resident
// counts alone: the cascade blocks the collect reads, the Ĥ buckets the
// merge can touch (one read each; the write-back is free) and, if the
// merge would push Ĥ's fill past 1/2, the rebuild that doubles it (every
// block read, two head blocks written per old bucket).
func (t *Table) mergeCostEstimate() int {
	ios := t.cascade.CollectCost() + min(t.cascade.Len(), t.big.NumBuckets())
	if 2*t.Len() > t.model.B()*t.big.NumBuckets() {
		ios += t.big.DiskBlocks() + 2*t.big.NumBuckets()
	}
	return ios
}

// MergeIfReadsPaid is the read-paid merge rule (see the package comment):
// once the I/Os lookups have spent in the cascade's disk levels since the
// last merge reach mergeCostEstimate — and not one I/O earlier — it
// absorbs the cascade into Ĥ exactly as an insert-triggered merge would,
// and reports the I/Os spent. Callers that serve lookups call it after
// them; it is a counter compare when there is no debt to act on.
func (t *Table) MergeIfReadsPaid() (ios int, merged bool) {
	if t.readDebt == 0 || t.readDebt < t.mergeCostEstimate() {
		return 0, false
	}
	if t.cascade.Len() == 0 { // deletes drained what the lookups probed
		t.readDebt = 0
		return 0, false
	}
	t.readPaidMerges++
	return t.mergeCascade(), true
}

// ReadDebt returns the I/Os lookups have spent in the cascade's disk
// levels since the last merge.
func (t *Table) ReadDebt() int { return t.readDebt }

// ReadPaidMerges returns how many of Merges were triggered by
// MergeIfReadsPaid instead of the insertion window.
func (t *Table) ReadPaidMerges() int { return t.readPaidMerges }

// LookupSmallestFirst is an ablation hook: like Lookup, but probes the
// cascade's disk levels smallest-first instead of largest-first. Since
// most of the cascade's mass sits in its largest level, this order makes
// a uniformly random cascade item pay ~all levels instead of O(1)
// expected probes — the constant §3 of the paper buys with its ordering.
// The Ablations experiment quantifies the difference.
func (t *Table) LookupSmallestFirst(key uint64) (val uint64, ok bool, ios int) {
	if v, hit := t.cascade.LookupMem(key); hit {
		return v, true, 0
	}
	v, hit, c := t.big.Lookup(key)
	ios += c
	if hit {
		return v, true, ios
	}
	v, hit, c = t.cascade.LookupLevels(key)
	ios += c
	return v, hit, ios
}

// update is the one probe sequence behind every read-modify-write: H_0
// (free), then Ĥ, then the cascade levels largest-first — Lookup's
// order, sound for the same reason (at most one copy of a key is alive)
// — stopping at the key's copy and handing its value to fn, which
// returns the value to store and whether to store it. The store rides
// the free write-back of the block just read, so an update costs what
// the lookup of its key costs. It never inserts.
func (t *Table) update(key uint64, fn func(cur uint64) (val uint64, write bool)) (found bool, ios int) {
	if t.cascade.UpdateMem(key, fn) {
		return true, 0
	}
	found, ios = t.big.Update(key, fn)
	if found {
		return true, ios
	}
	found, c := t.cascade.UpdateLevels(key, fn)
	return found, ios + c
}

// Upsert stores (key, val) whether or not key is present, updating in
// place when it is. It costs ~1 I/O more than Insert for keys that turn
// out to be new (the existence probe), matching the cost of a standard
// hash table; workloads that know their keys are fresh should call
// Insert.
func (t *Table) Upsert(key, val uint64) (int, error) {
	found, ios := t.update(key, func(uint64) (uint64, bool) { return val, true })
	if found {
		return ios, nil
	}
	c, err := t.Insert(key, val)
	return ios + c, err
}

// CompareSwap replaces key's value with new if the key is present and
// its value is old, reporting whether it swapped and the I/Os spent:
// the cost of looking the key up, hit or miss, swapped or not.
func (t *Table) CompareSwap(key, old, new uint64) (swapped bool, ios int) {
	_, ios = t.update(key, func(cur uint64) (uint64, bool) {
		swapped = cur == old
		return new, swapped
	})
	return swapped, ios
}

// Delete removes key (an extension; the paper studies insertions),
// reporting whether it was present and the I/Os spent. It follows
// Lookup's probe order and stops at the first copy, which is the only
// one (see the package contract), so a delete costs what the lookup of
// its key costs, plus at most the backfill of the hole it leaves in a
// multi-block chain.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	if t.cascade.DeleteMem(key) {
		return true, 0
	}
	ok, ios = t.big.Delete(key)
	if ok {
		return true, ios
	}
	ok, c := t.cascade.DeleteLevelsLargestFirst(key)
	return ok, ios + c
}

// Copies counts the live copies of key across H_0, Ĥ and every cascade
// level without performing I/O. The contract keeps it at most 1; tests
// audit that after every mutation, because the first-hit probes of
// Lookup, Upsert, CompareSwap and Delete all stand on it.
func (t *Table) Copies(key uint64) int {
	return t.big.Copies(key) + t.cascade.Copies(key)
}

// LoadFactor returns the paper's load factor of Ĥ (the dominant disk
// footprint).
func (t *Table) LoadFactor() float64 { return t.big.LoadFactor() }

// MemoryKeys returns the keys buffered in the cascade's H_0 (the
// paper's memory zone M), for the zones audit.
func (t *Table) MemoryKeys() []uint64 { return t.cascade.MemoryKeys() }

// AddressOf returns the first disk block a query for key probes: its Ĥ
// bucket head. Items in the cascade's disk levels (a <= 1/beta fraction)
// and in Ĥ overflow blocks are outside B_f(x), forming the slow zone the
// paper's Eq. (1) bounds by m + delta*k with delta = Theta(1/beta).
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	return t.big.AddressOf(key)
}

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.model.Disk }

// Close releases all memory reservations.
func (t *Table) Close() {
	t.cascade.Close()
	t.big.Close()
}

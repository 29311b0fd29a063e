package core

import (
	"testing"

	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// absentKey draws a key the table does not hold.
func absentKey(tab *Table, rng *xrand.Rand) uint64 {
	for {
		if k := rng.Uint64(); tab.Copies(k) == 0 {
			return k
		}
	}
}

// TestReadDebtAccrual: debt grows by exactly the I/Os a Lookup spends in
// the cascade's disk levels — nothing for an H_0 or Ĥ hit, and nothing
// for the read-modify-write probes that walk the same levels.
func TestReadDebtAccrual(t *testing.T) {
	tab, keys := newSpreadCore(t, 31)
	rng := xrand.New(32)
	var seen [numResidencies]int
	for i, k := range keys {
		where := tab.residencyOf(k)
		seen[where]++
		before := tab.ReadDebt()
		_, ok, ios := tab.Lookup(k)
		if !ok {
			t.Fatalf("key in %v lost", where)
		}
		got := tab.ReadDebt() - before
		switch where {
		case inH0, inBig:
			if got != 0 {
				t.Fatalf("lookup of a key in %v accrued %d", where, got)
			}
		case inLevels:
			// Everything past the Ĥ probe (a miss: the bucket's whole chain).
			_, _, bigIOs := tab.big.Lookup(k)
			if got != ios-bigIOs || got < 1 {
				t.Fatalf("lookup of a cascade-resident key: %d I/Os, %d in Ĥ, accrued %d", ios, bigIOs, got)
			}
		}
		before = tab.ReadDebt()
		if _, err := tab.Upsert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		tab.CompareSwap(k, uint64(i), uint64(i))
		tab.CompareSwap(absentKey(tab, rng), 0, 1)
		tab.Delete(absentKey(tab, rng))
		if i%7 == 0 {
			tab.Delete(k)
		}
		if tab.ReadDebt() != before {
			t.Fatalf("read-modify-write probes of a key in %v moved the debt %d -> %d", where, before, tab.ReadDebt())
		}
	}
	if seen[inH0] == 0 || seen[inBig] == 0 || seen[inLevels] == 0 {
		t.Fatalf("a component went unexercised: %v", seen)
	}
	before := tab.ReadDebt()
	k := absentKey(tab, rng)
	_, _, ios := tab.Lookup(k)
	_, _, bigIOs := tab.big.Lookup(k)
	if got := tab.ReadDebt() - before; got != ios-bigIOs || got < 1 {
		t.Fatalf("absent lookup: %d I/Os, %d in Ĥ, accrued %d", ios, bigIOs, got)
	}
	if _, merged := tab.MergeIfReadsPaid(); merged {
		t.Fatalf("merged at debt %d, estimate %d", tab.ReadDebt(), tab.mergeCostEstimate())
	}
}

// TestReadPaidMerge drives the rule on tables of several sizes — some
// of whose merges double Ĥ: it fires at the estimate and not one I/O
// earlier, costs at most mergeCostSlack estimates, leaves every key with
// one copy and every lookup at its Ĥ probe, and an insert-triggered
// merge zeroes the debt just the same.
func TestReadPaidMerge(t *testing.T) {
	grew := 0
	for _, n := range []int{700, 1200, 2100, 3000, 4100, 6000} {
		model, tab := newCore(t, 8, 256, 4)
		keys := workload.Keys(xrand.New(uint64(n)), 2*n)
		for i, k := range keys {
			if i >= n && tab.cascade.CollectCost() > 0 { // n keys, and on until a level is occupied
				keys = keys[:i]
				break
			}
			if _, err := tab.Insert(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		rng := xrand.New(99)

		// Lookups alone never merge, however much they accrue.
		est := tab.mergeCostEstimate()
		merges := tab.Merges()
		for tab.ReadDebt() < est {
			tab.Lookup(absentKey(tab, rng))
		}
		if tab.Merges() != merges || tab.ReadPaidMerges() != 0 || tab.mergeCostEstimate() != est {
			t.Fatalf("n=%d: Lookup restructured the table", n)
		}

		tab.readDebt = est - 1
		if _, merged := tab.MergeIfReadsPaid(); merged {
			t.Fatalf("n=%d: merged at debt %d, one short of the estimate %d", n, est-1, est)
		}
		tab.readDebt = est
		growths := tab.Growths()
		before := model.Disk.Counters()
		ios, merged := tab.MergeIfReadsPaid()
		if !merged {
			t.Fatalf("n=%d: no merge at debt == estimate %d", n, est)
		}
		if spent := int(model.Disk.Counters().Sub(before).IOs()); spent != ios {
			t.Fatalf("n=%d: reported %d I/Os, disk charged %d", n, ios, spent)
		}
		if ios > mergeCostSlack*est {
			t.Fatalf("n=%d: merge cost %d I/Os, estimate %d (slack %d)", n, ios, est, mergeCostSlack)
		}
		t.Logf("n=%d: estimate %d, actual %d (%.2fx), Ĥ doubled %d times", n, est, ios, float64(ios)/float64(est), tab.Growths()-growths)
		grew += tab.Growths() - growths
		if tab.Merges() != merges+1 || tab.ReadPaidMerges() != 1 || tab.ReadDebt() != 0 || tab.CascadeLen() != 0 {
			t.Fatalf("n=%d: after the merge: merges %d->%d, read-paid %d, debt %d, cascade %d",
				n, merges, tab.Merges(), tab.ReadPaidMerges(), tab.ReadDebt(), tab.CascadeLen())
		}
		for i, k := range keys {
			v, ok, c := tab.Lookup(k)
			_, _, bigIOs := tab.big.Lookup(k)
			if !ok || v != uint64(i) || tab.Copies(k) != 1 || c != bigIOs {
				t.Fatalf("n=%d: key %d after the merge: (%d,%v), %d copies, %d I/Os (Ĥ probe %d)", n, k, v, ok, tab.Copies(k), c, bigIOs)
			}
		}
		if tab.ReadDebt() != 0 {
			t.Fatalf("n=%d: lookups over an empty cascade accrued %d", n, tab.ReadDebt())
		}
		if _, merged := tab.MergeIfReadsPaid(); merged {
			t.Fatalf("n=%d: merged an empty cascade", n)
		}

		// Refill until a level is occupied, accrue some debt, and let
		// the insertion window run the next merge.
		fresh := workload.Keys(xrand.New(uint64(n)+1), 4*n)
		next := 0
		for tab.cascade.CollectCost() == 0 {
			tab.Insert(fresh[next], 0)
			next++
		}
		tab.Lookup(absentKey(tab, rng))
		if tab.ReadDebt() == 0 {
			t.Fatalf("n=%d: no debt from an absent lookup over an occupied level", n)
		}
		for merges = tab.Merges(); tab.Merges() == merges; next++ {
			tab.Insert(fresh[next], 0)
		}
		if tab.ReadDebt() != 0 || tab.ReadPaidMerges() != 1 {
			t.Fatalf("n=%d: insert-triggered merge left debt %d (read-paid merges %d)", n, tab.ReadDebt(), tab.ReadPaidMerges())
		}
	}
	if grew == 0 {
		t.Fatal("no size made the read-paid merge double Ĥ")
	}
}

// TestCollectCostExact: the estimate's collect term is what the collect
// really reads.
func TestCollectCostExact(t *testing.T) {
	tab, _ := newSpreadCore(t, 37)
	want := tab.cascade.CollectCost()
	_, got := tab.cascade.CollectAllUnique(nil)
	if got != want || want == 0 {
		t.Fatalf("CollectCost %d, collect read %d", want, got)
	}
}

// rmwStream is an insert-only phase followed by a read-modify-write-only
// phase over the same keys, with after called behind every operation.
func rmwStream(t *testing.T, after func(*Table)) (inserts, all iomodel.Counters) {
	t.Helper()
	model, tab := newCore(t, 64, 1024, 8)
	keys := workload.Keys(xrand.New(5), 20000)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		after(tab)
	}
	inserts = model.Disk.Counters()
	for i, k := range keys {
		switch i % 3 {
		case 0:
			if _, err := tab.Upsert(k, uint64(i)+1); err != nil {
				t.Fatal(err)
			}
		case 1:
			tab.CompareSwap(k, uint64(i), uint64(i)+7)
		case 2:
			tab.Delete(k)
		}
		after(tab)
	}
	if tab.ReadDebt() != 0 || tab.ReadPaidMerges() != 0 {
		t.Fatalf("a stream without lookups accrued debt %d, read-paid merges %d", tab.ReadDebt(), tab.ReadPaidMerges())
	}
	return inserts, model.Disk.Counters()
}

// TestWriteStreamsUnmoved: without lookups the rule never engages, so an
// insert-only and a read-modify-write-only stream cost, counter for
// counter, what they cost before the rule existed (the constants are the
// parent commit's), whether or not the caller settles after every
// operation.
func TestWriteStreamsUnmoved(t *testing.T) {
	wantInserts := iomodel.Counters{Reads: 9079, Writes: 3040, WriteBacks: 7047}
	wantAll := iomodel.Counters{Reads: 29530, Writes: 3040, WriteBacks: 26986}
	for name, after := range map[string]func(*Table){
		"never settled":  func(*Table) {},
		"always settled": func(tab *Table) { tab.MergeIfReadsPaid() },
	} {
		inserts, all := rmwStream(t, after)
		if inserts != wantInserts || all != wantAll {
			t.Errorf("%s: inserts %v then everything %v, want %v then %v", name, inserts, all, wantInserts, wantAll)
		}
	}
}

// TestReadPaidMergeCompetitive plays two adversaries against the rule,
// each running the same operations on a table that never settles (the
// parent's behaviour). "least use": as soon as lookups have bought a
// merge, insert just enough to occupy a cascade level again, then look
// up absent keys until the next merge is bought — every purchase is
// followed by the least use of it. "wasted purchase": fill the cascade
// to the brim of its window, look up absent keys until the rule buys the
// merge, then insert — the parent gets the same merge from the window an
// operation or two later, so the purchase bought nothing. Either way the
// rule's total stays within twice the parent's.
func TestReadPaidMergeCompetitive(t *testing.T) {
	// A wasted-purchase round inserts a whole window, a quarter of the table.
	for adversary, rounds := range map[string]int{"least use": 40, "wasted purchase": 6} {
		for _, seed := range []uint64{1, 2, 3} {
			ruleModel, rule := newCore(t, 16, 512, 4)
			plainModel, plain := newCore(t, 16, 512, 4)
			rng := xrand.New(seed)
			fresh := workload.Keys(xrand.New(seed+100), 200000)
			insert := func() {
				k := fresh[0]
				fresh = fresh[1:]
				if _, err := rule.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20000; i++ { // a table worth merging into
				insert()
			}
			for round := 0; round < rounds; round++ {
				for rule.cascade.CollectCost() == 0 {
					insert()
				}
				if adversary == "wasted purchase" {
					for plain.CascadeLen() < plain.window()-1 && rule.CascadeLen() < rule.window()-1 {
						insert()
					}
				}
				for bought := rule.ReadPaidMerges(); rule.ReadPaidMerges() == bought; {
					k := absentKey(plain, rng)
					rule.Lookup(k)
					rule.MergeIfReadsPaid()
					plain.Lookup(k)
				}
				if adversary == "wasted purchase" {
					for merges := plain.Merges(); plain.Merges() == merges; {
						insert()
					}
				}
			}
			if plain.ReadPaidMerges() != 0 || rule.ReadPaidMerges() != rounds {
				t.Fatalf("%s, seed %d: read-paid merges %d with the rule, %d without", adversary, seed, rule.ReadPaidMerges(), plain.ReadPaidMerges())
			}
			with, without := ruleModel.Disk.Counters().IOs(), plainModel.Disk.Counters().IOs()
			t.Logf("%s, seed %d: %d I/Os with the rule, %d without (%.2fx)", adversary, seed, with, without, float64(with)/float64(without))
			if with > 2*without {
				t.Fatalf("%s, seed %d: %d I/Os with the rule, %d without: past 2x", adversary, seed, with, without)
			}
		}
	}
}

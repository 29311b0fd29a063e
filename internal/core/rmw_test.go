package core

import (
	"fmt"
	"strings"
	"testing"

	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// residency names the component holding a key's single live copy.
type residency int

const (
	inH0 residency = iota
	inBig
	inLevels
	absent
	numResidencies
)

func (r residency) String() string {
	return [...]string{"H_0", "Ĥ", "cascade level", "absent"}[r]
}

func (t *Table) residencyOf(key uint64) residency {
	switch _, mem := t.cascade.LookupMem(key); {
	case mem:
		return inH0
	case t.big.Copies(key) > 0:
		return inBig
	case t.cascade.Copies(key) > 0:
		return inLevels
	}
	return absent
}

// newSpreadCore returns a small table holding keys[i] -> i with keys
// resident in all three components: H_0, Ĥ and the cascade's disk levels.
func newSpreadCore(t *testing.T, seed uint64) (*Table, []uint64) {
	t.Helper()
	_, tab := newCore(t, 8, 256, 4)
	keys := workload.Keys(xrand.New(seed), 1200)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var seen [numResidencies]int
	for _, k := range keys {
		seen[tab.residencyOf(k)]++
	}
	if seen[inH0] == 0 || seen[inBig] == 0 || seen[inLevels] == 0 {
		t.Fatalf("parameters left a component unexercised: %v", seen)
	}
	return tab, keys
}

func TestCompareSwap(t *testing.T) {
	tab, keys := newSpreadCore(t, 23)
	for i, k := range keys {
		where := tab.residencyOf(k)
		_, _, lookup := tab.Lookup(k)
		if swapped, ios := tab.CompareSwap(k, uint64(i)+1, 7); swapped || ios != lookup {
			t.Fatalf("key in %v: CAS against a wrong old value: swapped=%v ios=%d (lookup %d)", where, swapped, ios, lookup)
		}
		if v, _, _ := tab.Lookup(k); v != uint64(i) {
			t.Fatalf("key in %v: refused CAS wrote %d", where, v)
		}
		if swapped, ios := tab.CompareSwap(k, uint64(i), uint64(i)+5000); !swapped || ios != lookup {
			t.Fatalf("key in %v: CAS against the stored value: swapped=%v ios=%d (lookup %d)", where, swapped, ios, lookup)
		}
		if v, ok, _ := tab.Lookup(k); !ok || v != uint64(i)+5000 {
			t.Fatalf("key in %v: after CAS (%d,%v)", where, v, ok)
		}
		if tab.residencyOf(k) != where || tab.Copies(k) != 1 {
			t.Fatalf("key in %v: CAS moved or duplicated it (now %v, %d copies)", where, tab.residencyOf(k), tab.Copies(k))
		}
	}
	// CAS never inserts.
	if swapped, _ := tab.CompareSwap(0xabcdef, 0, 1); swapped {
		t.Fatal("CAS swapped an absent key")
	}
	if _, ok, _ := tab.Lookup(0xabcdef); ok || tab.Len() != len(keys) {
		t.Fatalf("CAS of an absent key inserted it (Len %d)", tab.Len())
	}
}

// TestDeleteFirstHit: wherever a key's single copy lives, Delete removes
// exactly it and keeps Len exact (TestOpKindIOCost prices it).
func TestDeleteFirstHit(t *testing.T) {
	tab, keys := newSpreadCore(t, 29)
	for i, k := range keys {
		where := tab.residencyOf(k)
		if n := tab.Copies(k); n != 1 {
			t.Fatalf("key in %v has %d copies", where, n)
		}
		ok, _ := tab.Delete(k)
		if !ok || tab.Copies(k) != 0 {
			t.Fatalf("key in %v: delete ok=%v, %d copies left", where, ok, tab.Copies(k))
		}
		if tab.Len() != len(keys)-i-1 {
			t.Fatalf("Len = %d after %d deletes", tab.Len(), i+1)
		}
	}
}

// TestOpKindIOCost pins the I/O cost of every point operation on the
// served engine's shape (b = 64, m = 1024, β = 8, 262,144 keys, mem
// backend) against the cost of looking the same key up, and prints the
// per-kind table EXPERIMENTS.md quotes:
//
//	go test -run TestOpKindIOCost -v ./internal/core
//
// At load ≤ 1/2 and b = 64 every bucket is a single block, so the
// one-probe-order rule makes each read-modify-write cost exactly its
// lookup.
func TestOpKindIOCost(t *testing.T) {
	const n = 262144
	_, tab := newCore(t, 64, 1024, 8)
	rng := xrand.New(1)
	keys := workload.Keys(rng, n)
	insertIOs := 0
	for i, k := range keys {
		c, err := tab.Insert(k, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		insertIOs += c
	}

	kinds := []string{"lookup", "upsert", "cas", "delete"}
	var sum [numResidencies][4]int
	var count [numResidencies]int
	measure := func(k, val uint64, where residency) {
		_, _, lookup := tab.Lookup(k)
		upsert := lookup
		if where != absent { // an absent key's upsert is an insert; priced above
			var err error
			if upsert, err = tab.Upsert(k, val+1); err != nil {
				t.Fatal(err)
			}
		}
		swapped, cas := tab.CompareSwap(k, val+1, val+2)
		ok, del := tab.Delete(k)
		if (where != absent) != swapped || (where != absent) != ok {
			t.Fatalf("key in %v: swapped=%v deleted=%v", where, swapped, ok)
		}
		if upsert != lookup || cas != lookup {
			t.Fatalf("key in %v: upsert %d and cas %d I/Os, want the lookup's %d", where, upsert, cas, lookup)
		}
		switch {
		case where == inLevels && del > lookup+1:
			t.Fatalf("cascade-resident key: delete %d I/Os, lookup %d", del, lookup)
		case where != inLevels && del != lookup:
			t.Fatalf("key in %v: delete %d I/Os, want the lookup's %d", where, del, lookup)
		}
		for i, c := range [4]int{lookup, upsert, cas, del} {
			sum[where][i] += c
		}
		count[where]++
	}
	// Never-stored keys first, while every cascade level is still
	// populated; then every 64th key plus each of the newest 4096 (where
	// the cascade's share is), in random order so the levels drain evenly.
	const recent = 4096
	for i := 0; i < recent; i++ {
		if k := rng.Uint64(); tab.residencyOf(k) == absent {
			measure(k, 0, absent)
		}
	}
	var sample []int
	for i := 0; i < n; i++ {
		if i%64 == 0 || i >= n-recent {
			sample = append(sample, i)
		}
	}
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	for _, i := range sample {
		measure(keys[i], uint64(i), tab.residencyOf(keys[i]))
	}

	// The read-paid merge, on a second table loaded the same way (the
	// sampling above deleted the first one's cascade): absent lookups pay
	// the absent column's price until MergeIfReadsPaid has its estimate,
	// and 1 I/O afterwards.
	_, tab = newCore(t, 64, 1024, 8)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	paidLookups, paidIOs := 0, 0
	for merged := false; !merged; paidLookups++ {
		_, _, c := tab.Lookup(absentKey(tab, rng))
		paidIOs += c
		_, merged = tab.MergeIfReadsPaid()
	}
	afterAbsent, afterPresent := 0, 0
	for i := 0; i < recent; i++ {
		_, _, c := tab.Lookup(absentKey(tab, rng))
		afterAbsent += c
		_, ok, c := tab.Lookup(keys[64*i+1])
		if !ok {
			t.Fatalf("key %d lost by the read-paid merge", keys[64*i+1])
		}
		afterPresent += c
	}
	if afterAbsent != recent || afterPresent != recent || tab.ReadDebt() != 0 {
		t.Fatalf("after the read-paid merge: %d absent and %d present lookups cost %d and %d I/Os, debt %d",
			recent, recent, afterAbsent, afterPresent, tab.ReadDebt())
	}

	var b strings.Builder
	fmt.Fprintf(&b, "mean I/Os per operation by where the key lives (insert of a fresh key: %.3f amortized)\n", float64(insertIOs)/n)
	fmt.Fprintf(&b, "%-8s", "kind")
	for r := residency(0); r < numResidencies; r++ {
		if count[r] == 0 {
			t.Fatalf("no sampled key in %v", r)
		}
		fmt.Fprintf(&b, " %20s", fmt.Sprintf("%v (%d keys)", r, count[r]))
	}
	for i, kind := range kinds {
		fmt.Fprintf(&b, "\n%-8s", kind)
		for r := residency(0); r < numResidencies; r++ {
			if r == absent && kind == "upsert" {
				fmt.Fprintf(&b, " %20s", "(an insert)")
				continue
			}
			fmt.Fprintf(&b, " %20.3f", float64(sum[r][i])/float64(count[r]))
		}
	}
	fmt.Fprintf(&b, "\nabsent lookup, cascade full: %.3f; %d of them (%d I/Os) bought the read-paid merge; after it: absent %.3f, present %.3f",
		float64(sum[absent][0])/float64(count[absent]), paidLookups, paidIOs, float64(afterAbsent)/recent, float64(afterPresent)/recent)
	t.Log("\n" + b.String())
}

package core

import (
	"math"
	"testing"
	"testing/quick"

	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
	"extbuf/internal/zones"
)

func newCore(t *testing.T, b int, mWords int64, beta int) (*iomodel.Model, *Table) {
	t.Helper()
	model := iomodel.NewModel(b, mWords)
	tab, err := New(model, hashfn.NewIdeal(1), Config{Beta: beta, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	return model, tab
}

func TestInsertLookup(t *testing.T) {
	_, tab := newCore(t, 16, 512, 8)
	rng := xrand.New(2)
	keys := workload.Keys(rng, 5000)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 5000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost (ok=%v v=%d want %d)", k, ok, v, i)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok, _ := tab.Lookup(rng.Uint64()); ok {
			t.Fatal("found absent key")
		}
	}
}

func TestBigFractionInvariant(t *testing.T) {
	// The paper: Ĥ always holds >= 1 - 1/beta of all items (checked once
	// past the initial dump of ~m items).
	beta := 8
	_, tab := newCore(t, 16, 512, beta)
	rng := xrand.New(3)
	keys := workload.Keys(rng, 20000)
	for i, k := range keys {
		if _, err := tab.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 2*512 {
			// Allow the current in-flight window on top of 1/beta.
			frac := tab.BigFraction()
			floor := 1 - 2.5/float64(beta)
			if frac < floor {
				t.Fatalf("after %d inserts BigFraction %.4f < %.4f", i+1, frac, floor)
			}
		}
	}
}

func TestTheorem2QueryCost(t *testing.T) {
	// t_q <= 1 + O(1/beta) for successful lookups.
	b := 64
	beta := 16
	model, tab := newCore(t, b, 2048, beta)
	rng := xrand.New(5)
	n := 60000
	keys := workload.Keys(rng, n)
	for _, k := range keys {
		if _, err := tab.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	qs := workload.SuccessfulQueries(rng, keys, n, 5000)
	c0 := model.Counters()
	for _, q := range qs {
		if _, ok, _ := tab.Lookup(q); !ok {
			t.Fatal("lost key")
		}
	}
	tq := float64(model.Counters().Sub(c0).IOs()) / float64(len(qs))
	bound := 1 + 6.0/float64(beta)
	if tq > bound {
		t.Fatalf("t_q = %.4f exceeds 1 + O(1/beta) ~ %.4f", tq, bound)
	}
	if tq < 0.8 {
		t.Fatalf("t_q = %.4f implausibly low", tq)
	}
}

func TestTheorem2InsertCost(t *testing.T) {
	// t_u = O(beta/b + (gamma/b) log(n/m)) — in particular o(1) when
	// beta << b. Also: larger beta must cost more than smaller beta.
	b := 128
	measure := func(beta int) float64 {
		model, tab := newCore(t, b, 2048, beta)
		rng := xrand.New(7)
		n := 80000
		keys := workload.Keys(rng, n)
		c0 := model.Counters()
		for _, k := range keys {
			if _, err := tab.Insert(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		return float64(model.Counters().Sub(c0).IOs()) / float64(n)
	}
	tu4 := measure(4)
	tu32 := measure(32)
	if tu4 >= 1 || tu32 >= 1 {
		t.Fatalf("insert costs not o(1): beta=4: %.4f, beta=32: %.4f", tu4, tu32)
	}
	if tu32 <= tu4 {
		t.Fatalf("beta=32 (%.4f) should cost more than beta=4 (%.4f)", tu32, tu4)
	}
}

func TestQueryInsertTradeoff(t *testing.T) {
	// The heart of Figure 1's upper-bound curve: raising beta buys query
	// cost closer to 1 at higher insert cost.
	b := 64
	type point struct{ tq, tu float64 }
	measure := func(beta int) point {
		model, tab := newCore(t, b, 1024, beta)
		rng := xrand.New(11)
		n := 40000
		keys := workload.Keys(rng, n)
		c0 := model.Counters()
		for _, k := range keys {
			tab.Insert(k, 0)
		}
		tu := float64(model.Counters().Sub(c0).IOs()) / float64(n)
		qs := workload.SuccessfulQueries(rng, keys, n, 4000)
		c1 := model.Counters()
		for _, q := range qs {
			tab.Lookup(q)
		}
		tq := float64(model.Counters().Sub(c1).IOs()) / float64(len(qs))
		return point{tq, tu}
	}
	p4 := measure(4)
	p32 := measure(32)
	if !(p32.tq < p4.tq) {
		t.Fatalf("higher beta should lower t_q: beta4 tq=%.4f beta32 tq=%.4f", p4.tq, p32.tq)
	}
	if !(p32.tu > p4.tu) {
		t.Fatalf("higher beta should raise t_u: beta4 tu=%.4f beta32 tu=%.4f", p4.tu, p32.tu)
	}
}

func TestUpsert(t *testing.T) {
	_, tab := newCore(t, 8, 256, 4)
	rng := xrand.New(13)
	keys := workload.Keys(rng, 1000)
	for i, k := range keys {
		if _, err := tab.Upsert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Overwrite everything through Upsert; count must not change and
	// values must be fresh regardless of where each key lives.
	for i, k := range keys {
		if _, err := tab.Upsert(k, uint64(i)+5000); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len = %d after upserts", tab.Len())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i)+5000 {
			t.Fatalf("key %d: v=%d ok=%v", k, v, ok)
		}
	}
}

func TestDelete(t *testing.T) {
	_, tab := newCore(t, 8, 256, 4)
	rng := xrand.New(17)
	keys := workload.Keys(rng, 800)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	for i, k := range keys {
		if i%2 == 0 {
			ok, _ := tab.Delete(k)
			if !ok {
				t.Fatalf("delete %d failed", k)
			}
		}
	}
	for i, k := range keys {
		_, ok, _ := tab.Lookup(k)
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence wrong", k)
		}
	}
	if ok, _ := tab.Delete(999); ok {
		t.Fatal("deleted absent key")
	}
}

func TestFlush(t *testing.T) {
	_, tab := newCore(t, 8, 256, 4)
	rng := xrand.New(19)
	keys := workload.Keys(rng, 100)
	for i, k := range keys {
		tab.Insert(k, uint64(i))
	}
	tab.Flush()
	if tab.CascadeLen() != 0 {
		t.Fatalf("cascade not empty after flush: %d", tab.CascadeLen())
	}
	if tab.BigLen() != 100 {
		t.Fatalf("big table has %d items", tab.BigLen())
	}
	for i, k := range keys {
		v, ok, _ := tab.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost in flush", k)
		}
	}
	if tab.Flush() != 0 {
		t.Fatal("flushing empty cascade cost I/Os")
	}
}

func TestZoneAuditEq1(t *testing.T) {
	// The structure must satisfy Eq. (1): |S| <= m + delta*k with
	// delta = Theta(1/beta).
	b := 64
	beta := 16
	model, tab := newCore(t, b, 1024, beta)
	rng := xrand.New(23)
	keys := workload.Keys(rng, 30000)
	for _, k := range keys {
		tab.Insert(k, 0)
	}
	rep := zones.Audit(tab, keys)
	if rep.K != 30000 || rep.M+rep.F+rep.S != rep.K {
		t.Fatalf("audit inconsistent: %+v", rep)
	}
	delta := 3.0 / float64(beta)
	ok, slack := rep.CheckEq1(model.MWords(), delta)
	if !ok {
		t.Fatalf("Eq.(1) violated: %s, slack %.1f at delta=%.4f", rep, slack, delta)
	}
	// And the zone-model query cost must be 1 + O(1/beta).
	if mc := rep.ModelQueryCost(); mc > 1+6/float64(beta) {
		t.Fatalf("zone-model query cost %.4f too high", mc)
	}
}

func TestMemoryBudget(t *testing.T) {
	model, tab := newCore(t, 16, 512, 4)
	rng := xrand.New(29)
	for _, k := range workload.Keys(rng, 20000) {
		if _, err := tab.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
		if model.Mem.Used() > model.Mem.Capacity() {
			t.Fatal("memory budget exceeded")
		}
	}
	tab.Close()
	if model.Mem.Used() != 0 {
		t.Fatalf("Close left %d words", model.Mem.Used())
	}
}

func TestBetaValidation(t *testing.T) {
	model := iomodel.NewModel(8, 256)
	if _, err := New(model, hashfn.NewIdeal(1), Config{Beta: 9, Gamma: 2}); err == nil {
		t.Fatal("beta > b accepted")
	}
	// Beta below 2 is clamped, not rejected.
	tab, err := New(model, hashfn.NewIdeal(1), Config{Beta: 0, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Beta() != 2 {
		t.Fatalf("Beta = %d, want clamp to 2", tab.Beta())
	}
}

func TestGrowthDoublesRounds(t *testing.T) {
	_, tab := newCore(t, 16, 512, 4)
	rng := xrand.New(31)
	for _, k := range workload.Keys(rng, 30000) {
		tab.Insert(k, 0)
	}
	if tab.Growths() < 3 {
		t.Fatalf("expected several Ĥ doublings, got %d", tab.Growths())
	}
	if tab.Merges() < tab.Growths() {
		t.Fatalf("merges (%d) should outnumber growths (%d)", tab.Merges(), tab.Growths())
	}
	if lf := tab.LoadFactor(); lf > 0.7 || lf <= 0 {
		t.Fatalf("Ĥ load factor %.3f outside (0, 0.7]", lf)
	}
}

func TestEpsilonParameterization(t *testing.T) {
	// Theorem 2 second form: beta = (eps/2c')*b gives t_u ~ eps with
	// t_q = 1 + O(1/b). Check that scaling beta linearly with b holds
	// t_u roughly constant across block sizes.
	measure := func(b int) float64 {
		beta := b / 8
		model, tab := newCore(t, b, 2048, beta)
		rng := xrand.New(37)
		n := 60000
		for _, k := range workload.Keys(rng, n) {
			tab.Insert(k, 0)
		}
		return float64(model.Counters().IOs()) / float64(n)
	}
	t64 := measure(64)
	t256 := measure(256)
	if t64 >= 1 || t256 >= 1 {
		t.Fatalf("eps-parameterized insert cost not < 1: %v %v", t64, t256)
	}
	ratio := t64 / t256
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("t_u should be roughly b-independent at beta ~ b: %v vs %v", t64, t256)
	}
}

func TestMatchesMapModel(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		model := iomodel.NewModel(4, 128)
		tab, err := New(model, hashfn.NewIdeal(seed), Config{Beta: 4, Gamma: 2})
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		r := xrand.New(seed)
		for _, op := range ops {
			key := uint64(op % 32)
			switch op % 5 {
			case 0, 1:
				v := r.Uint64()
				if _, err := tab.Upsert(key, v); err != nil {
					return false
				}
				ref[key] = v
			case 2:
				ok, _ := tab.Delete(key)
				_, inRef := ref[key]
				if ok != inRef {
					return false
				}
				delete(ref, key)
			case 3: // CAS, against the stored value half the time
				rv, inRef := ref[key]
				old, v := rv+r.Uint64()%2, r.Uint64()
				swapped, _ := tab.CompareSwap(key, old, v)
				if swapped != (inRef && old == rv) {
					return false
				}
				if swapped {
					ref[key] = v
				}
			default:
				v, ok, _ := tab.Lookup(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
			// The invariant every first-hit probe stands on.
			want := 0
			if _, inRef := ref[key]; inRef {
				want = 1
			}
			if tab.Copies(key) != want || tab.Len() != len(ref) {
				return false
			}
		}
		for k, v := range ref {
			got, ok, _ := tab.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCostShrinksWithBlockSize(t *testing.T) {
	// Fixing beta, t_u = O(beta/b + (2/b)log(n/m)) must shrink as b
	// grows — the defining property of effective buffering (c < 1 side
	// of Figure 1).
	measure := func(b int) float64 {
		model, tab := newCore(t, b, 2048, 8)
		rng := xrand.New(41)
		n := 60000
		for _, k := range workload.Keys(rng, n) {
			tab.Insert(k, 0)
		}
		return float64(model.Counters().IOs()) / float64(n)
	}
	t32 := measure(32)
	t256 := measure(256)
	if !(t256 < t32) {
		t.Fatalf("t_u did not shrink with b: b=32 %.4f, b=256 %.4f", t32, t256)
	}
	if ratio := t32 / t256; ratio < 3 {
		t.Fatalf("t_u scaling with b too weak: ratio %.2f (want ~8)", ratio)
	}
	if math.IsNaN(t32) || math.IsNaN(t256) {
		t.Fatal("NaN costs")
	}
}

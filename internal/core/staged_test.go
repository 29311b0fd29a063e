package core

import (
	"math"
	"testing"

	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
	"extbuf/internal/zones"
)

func newStaged(t *testing.T, b int, mWords int64, delta float64) (*iomodel.Model, *Staged) {
	t.Helper()
	model := iomodel.NewModel(b, mWords)
	s, err := NewStaged(model, hashfn.NewIdeal(1), StagedConfig{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	return model, s
}

func TestStagedInsertLookup(t *testing.T) {
	_, s := newStaged(t, 8, 256, 0.01)
	rng := xrand.New(2)
	keys := workload.Keys(rng, 3000)
	for i, k := range keys {
		s.Insert(k, uint64(i))
	}
	if s.Len() != 3000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, k := range keys {
		v, ok, _ := s.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost (ok=%v)", k, ok)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := s.Lookup(rng.Uint64()); ok {
			t.Fatal("found absent key")
		}
	}
}

// TestStagedDeterministic: two tables fed the same keys lay out the same
// staging blocks, so the same lookups cost the same I/Os — the seed,
// not the map's iteration order, fixes the counters.
func TestStagedDeterministic(t *testing.T) {
	keys := workload.Keys(xrand.New(4), 3000)
	var counters [2]iomodel.Counters
	var ios [2][]int
	for r := range counters {
		model, s := newStaged(t, 8, 256, 0.05)
		for i, k := range keys {
			s.Insert(k, uint64(i))
		}
		if s.StagingItems() == 0 {
			t.Fatal("nothing staged: the lookups would not scan staging")
		}
		model.Disk.ResetCounters()
		for _, k := range keys {
			_, _, c := s.Lookup(k)
			ios[r] = append(ios[r], c)
		}
		counters[r] = model.Disk.Counters()
	}
	if counters[0] != counters[1] {
		t.Fatalf("same keys, same lookups: counters %v vs %v", counters[0], counters[1])
	}
	for i := range ios[0] {
		if ios[0][i] != ios[1][i] {
			t.Fatalf("lookup %d: %d I/Os vs %d", i, ios[0][i], ios[1][i])
		}
	}
}

func TestStagedBudgetEnforced(t *testing.T) {
	// |S| = staging items must never exceed m + delta*k.
	b := 16
	mWords := int64(256)
	delta := 0.05
	_, s := newStaged(t, b, mWords, delta)
	rng := xrand.New(3)
	for i, k := range workload.Keys(rng, 20000) {
		s.Insert(k, 0)
		budget := float64(mWords) + delta*float64(i+1)
		if float64(s.StagingItems()) > budget {
			t.Fatalf("after %d inserts staging %d exceeds budget %.0f",
				i+1, s.StagingItems(), budget)
		}
	}
}

func TestStagedZoneAudit(t *testing.T) {
	model, s := newStaged(t, 16, 256, 0.02)
	rng := xrand.New(5)
	keys := workload.Keys(rng, 10000)
	for _, k := range keys {
		s.Insert(k, 0)
	}
	rep := zones.Audit(s, keys)
	if rep.M+rep.F+rep.S != rep.K {
		t.Fatalf("zones don't partition: %+v", rep)
	}
	// Eq. (1) with the structure's own delta plus chain-overflow slack.
	ok, slack := rep.CheckEq1(model.MWords(), 0.03)
	if !ok {
		t.Fatalf("Eq.(1) violated: %s slack=%.0f", rep, slack)
	}
	if rep.M > int(model.MWords()) {
		t.Fatalf("|M| = %d exceeds memory", rep.M)
	}
}

// measureStagedTu returns the measured amortized insertion cost at the
// given delta.
func measureStagedTu(t *testing.T, b int, mWords int64, n int, delta float64) float64 {
	t.Helper()
	model := iomodel.NewModel(b, mWords)
	s, err := NewStaged(model, hashfn.NewIdeal(1), StagedConfig{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for _, k := range workload.Keys(rng, n) {
		s.Insert(k, 0)
	}
	return float64(model.Counters().IOs()) / float64(n)
}

func TestTheorem1Regimes(t *testing.T) {
	// The staged strategy's measured t_u must trace the three regimes of
	// Theorem 1 as delta = 1/b^c varies:
	//   c > 1  -> t_u near 1 (buffering useless),
	//   c = 1  -> t_u = Theta(1),
	//   c < 1  -> t_u = Theta(b^(c-1)) << 1.
	b := 64
	mWords := int64(512)
	n := 60000
	fb := float64(b)
	tuHigh := measureStagedTu(t, b, mWords, n, 1/math.Pow(fb, 1.5)) // c = 1.5
	tuOne := measureStagedTu(t, b, mWords, n, 1/fb)                 // c = 1
	tuLow := measureStagedTu(t, b, mWords, n, 1/math.Pow(fb, 0.5))  // c = 0.5
	if tuHigh < 0.5 {
		t.Fatalf("c=1.5: t_u = %.4f, lower bound says it must stay near 1", tuHigh)
	}
	if !(tuLow < tuOne && tuOne <= tuHigh+0.2) {
		t.Fatalf("regimes out of order: c=1.5:%.4f c=1:%.4f c=0.5:%.4f", tuHigh, tuOne, tuLow)
	}
	// c = 0.5: t_u = Theta(b^(-1/2)). The full asymptotic gap needs the
	// paper's precondition n/m > b^(1+2c), far beyond laptop scale for
	// c = 1.5, so demand a clear 2x separation rather than the limit
	// value (see EXPERIMENTS.md, experiment T1.*).
	if tuLow > tuHigh/2 {
		t.Fatalf("c=0.5 t_u %.4f not clearly below c=1.5 t_u %.4f", tuLow, tuHigh)
	}
}

func TestStagedFlushAll(t *testing.T) {
	_, s := newStaged(t, 8, 256, 0.5)
	rng := xrand.New(11)
	keys := workload.Keys(rng, 500)
	for i, k := range keys {
		s.Insert(k, uint64(i))
	}
	s.FlushAll()
	if s.StagingItems() != 0 {
		t.Fatalf("staging not drained: %d", s.StagingItems())
	}
	if len(s.MemoryKeys()) != 0 {
		t.Fatal("buffer not drained")
	}
	for i, k := range keys {
		v, ok, _ := s.Lookup(k)
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost in FlushAll", k)
		}
	}
}

func TestStagedDeltaZero(t *testing.T) {
	// delta = 0: the budget is just m, forcing a clean on nearly every
	// flush; the strategy degrades toward ~1 I/O per item, the c > 1
	// regime in its purest form.
	tu := measureStagedTu(t, 64, 512, 30000, 0)
	if tu < 0.4 {
		t.Fatalf("delta=0 t_u = %.4f, expected near-1 (no slow zone allowed)", tu)
	}
}

func TestStagedCounters(t *testing.T) {
	_, s := newStaged(t, 8, 128, 0.1)
	rng := xrand.New(13)
	for _, k := range workload.Keys(rng, 2000) {
		s.Insert(k, 0)
	}
	if s.Flushes() == 0 {
		t.Fatal("no flushes recorded")
	}
	if s.Cleanings() == 0 {
		t.Fatal("no cleanings recorded")
	}
	if s.Delta() != 0.1 {
		t.Fatalf("Delta = %v", s.Delta())
	}
}

func TestStagedMemoryRelease(t *testing.T) {
	model, s := newStaged(t, 8, 256, 0.1)
	s.Insert(1, 1)
	s.Close()
	if model.Mem.Used() != 0 {
		t.Fatalf("Close left %d words", model.Mem.Used())
	}
}

func TestStagedRejectsNegativeDelta(t *testing.T) {
	model := iomodel.NewModel(8, 256)
	if _, err := NewStaged(model, hashfn.NewIdeal(1), StagedConfig{Delta: -1}); err == nil {
		t.Fatal("negative delta accepted")
	}
}

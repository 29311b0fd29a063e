package expiry

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSetClearExpired(t *testing.T) {
	x := New()
	x.Set(1, 100)
	x.Set(2, 200)
	if d, ok := x.Deadline(1); !ok || d != 100 {
		t.Fatalf("Deadline(1) = %d, %v", d, ok)
	}
	if !x.Expired(1, 100) {
		t.Fatal("deadline <= now should be expired")
	}
	if x.Expired(1, 99) {
		t.Fatal("deadline > now should not be expired")
	}
	if x.Expired(3, 1000) {
		t.Fatal("key without deadline is never expired")
	}
	x.Clear(1)
	if _, ok := x.Deadline(1); ok {
		t.Fatal("Clear left a deadline")
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
}

func TestPopDueOrderAndStaleness(t *testing.T) {
	x := New()
	x.Set(1, 50)
	x.Set(2, 30)
	x.Set(3, 70)
	x.Set(2, 10)  // re-set: old heap entry for key 2 goes stale
	x.Clear(3)    // cleared: heap entry stale
	x.Set(4, 500) // not due

	got := x.PopDue(100, nil, 10)
	want := []uint64{2, 1}
	if len(got) != len(want) {
		t.Fatalf("PopDue = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopDue = %v, want %v (deadline order)", got, want)
		}
	}
	if x.Len() != 1 {
		t.Fatalf("Len after pop = %d, want 1 (key 4)", x.Len())
	}
	if got := x.PopDue(100, nil, 10); len(got) != 0 {
		t.Fatalf("second PopDue = %v, want empty", got)
	}
}

func TestPopDueMax(t *testing.T) {
	x := New()
	for k := uint64(0); k < 10; k++ {
		x.Set(k, k+1)
	}
	got := x.PopDue(100, nil, 3)
	if len(got) != 3 {
		t.Fatalf("PopDue max=3 returned %d keys", len(got))
	}
	if x.Len() != 7 {
		t.Fatalf("Len = %d, want 7", x.Len())
	}
}

func TestRandomAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := New()
	model := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			d := uint64(rng.Intn(1000))
			x.Set(k, d)
			model[k] = d
		case 1:
			x.Clear(k)
			delete(model, k)
		case 2:
			d, ok := x.Deadline(k)
			md, mok := model[k]
			if ok != mok || d != md {
				t.Fatalf("step %d: Deadline(%d) = %d,%v want %d,%v", i, k, d, ok, md, mok)
			}
		case 3:
			now := uint64(rng.Intn(1000))
			got := x.PopDue(now, nil, 1000)
			var want []uint64
			for mk, md := range model {
				if md <= now {
					want = append(want, mk)
					delete(model, mk)
				}
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("step %d: PopDue(%d) = %v, want %v", i, now, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d: PopDue(%d) = %v, want %v", i, now, got, want)
				}
			}
		}
	}
	if x.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", x.Len(), len(model))
	}
}

// TestHeapCompactsUnderChurn: far-deadline re-Sets and Clears, which
// PopDue never drains, must not grow the heap without bound — and the
// bound keeps Earliest tight on the live minimum.
func TestHeapCompactsUnderChurn(t *testing.T) {
	x := New()
	rng := rand.New(rand.NewSource(3))
	const keys, far = 1000, uint64(1) << 60
	for i := 0; i < 1_000_000; i++ {
		k := uint64(rng.Intn(keys))
		if rng.Intn(3) == 0 {
			x.Clear(k)
		} else {
			x.Set(k, far+uint64(rng.Intn(1<<20)))
		}
		if len(x.heap) > 2*x.Len()+1 {
			t.Fatalf("op %d: heap holds %d entries for %d live keys", i, len(x.heap), x.Len())
		}
	}
	min := ^uint64(0)
	x.Range(func(_, d uint64) {
		if d < min {
			min = d
		}
	})
	if e := x.Earliest(); e > min {
		t.Fatalf("Earliest = %d is above the live minimum %d", e, min)
	}
	// Every live key still pops, in deadline order.
	due := x.PopDue(^uint64(0), nil, keys+1)
	if len(due) == 0 || x.Len() != 0 {
		t.Fatalf("popped %d keys, %d left", len(due), x.Len())
	}
}

// TestEarliest: a lower bound on every live deadline; exact after a
// compaction, conservative (never late) with abandoned entries on top.
func TestEarliest(t *testing.T) {
	x := New()
	if x.Earliest() != ^uint64(0) {
		t.Fatalf("empty index: Earliest = %d", x.Earliest())
	}
	x.Set(1, 500)
	x.Set(2, 300)
	x.Set(3, 900)
	if x.Earliest() != 300 {
		t.Fatalf("Earliest = %d, want 300", x.Earliest())
	}
	x.Set(2, 700) // the 300 entry is abandoned but still on top
	if e := x.Earliest(); e > 500 {
		t.Fatalf("Earliest = %d is above the live minimum 500", e)
	}
	x.Clear(1)
	x.Clear(3) // 4 heap entries for 1 live key: compacted
	if x.Earliest() != 700 || len(x.heap) != 1 {
		t.Fatalf("after compaction: Earliest = %d, heap %d entries; want 700, 1", x.Earliest(), len(x.heap))
	}
}

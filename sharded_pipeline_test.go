package extbuf_test

import (
	"errors"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"extbuf"
	"extbuf/internal/xrand"
)

// shipRecorder is a ship sink that assigns consecutive LSNs, like the
// ship log, and remembers the LSN each key last shipped under.
type shipRecorder struct {
	mu   sync.Mutex
	next uint64
	lsn  map[uint64]uint64
}

func newShipRecorder() *shipRecorder { return &shipRecorder{next: 1, lsn: make(map[uint64]uint64)} }

func (r *shipRecorder) ship(op uint8, keys, vals []uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.next
	for i, k := range keys {
		r.lsn[k] = first + uint64(i)
	}
	r.next += uint64(len(keys))
	return first, nil
}

// pipelineStep is one batch of the op stream the start/wait tests run.
type pipelineStep struct {
	op         extbuf.BatchOp
	keys, vals []uint64
}

// pipelineStream builds rounds of INSERT, LOOKUP, UPSERT, LOOKUP,
// DELETE, LOOKUP over a fresh block of keys each round — every batch
// depends on the one before it, per key — plus a lookup of absent keys.
func pipelineStream(rounds, batch int) []pipelineStep {
	rng := xrand.New(91)
	var steps []pipelineStep
	for r := 0; r < rounds; r++ {
		keys := make([]uint64, batch)
		v1, v2 := make([]uint64, batch), make([]uint64, batch)
		for i := range keys {
			keys[i] = rng.Uint64() | 1
			v1[i], v2[i] = uint64(r*batch+i), uint64(r*batch+i)*7+1
		}
		steps = append(steps,
			pipelineStep{extbuf.BatchInsert, keys, v1},
			pipelineStep{extbuf.BatchLookup, keys, nil},
			pipelineStep{extbuf.BatchUpsert, keys, v2},
			pipelineStep{extbuf.BatchLookup, keys, nil},
			pipelineStep{extbuf.BatchDelete, keys[:batch/2], nil},
			pipelineStep{extbuf.BatchLookup, keys, nil},
		)
	}
	return steps
}

// stepResult is what one batch returned.
type stepResult struct {
	lsn   uint64
	vals  []uint64
	found []bool
}

// runSynchronous applies the stream through the Engine interface's
// synchronous calls.
func runSynchronous(t *testing.T, s *extbuf.Sharded, steps []pipelineStep) []stepResult {
	t.Helper()
	out := make([]stepResult, len(steps))
	for i, st := range steps {
		res := &out[i]
		var err error
		switch st.op {
		case extbuf.BatchInsert:
			res.lsn, err = s.InsertBatchShip(st.keys, st.vals)
		case extbuf.BatchUpsert:
			res.lsn, err = s.UpsertBatchShip(st.keys, st.vals)
		case extbuf.BatchDelete:
			res.found = make([]bool, len(st.keys))
			res.lsn, err = s.DeleteBatchShipInto(st.keys, res.found)
		case extbuf.BatchLookup:
			res.vals, res.found = make([]uint64, len(st.keys)), make([]bool, len(st.keys))
			err = s.LookupBatchInto(st.keys, res.vals, res.found)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return out
}

// runStarted applies the stream through StartBatch, keeping up to depth
// calls outstanding and waiting for them oldest first.
func runStarted(t *testing.T, s *extbuf.Sharded, steps []pipelineStep, depth int) []stepResult {
	t.Helper()
	out := make([]stepResult, len(steps))
	calls := make([]*extbuf.BatchCall, len(steps))
	wait := func(i int) {
		var err error
		if out[i].lsn, err = calls[i].Wait(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for i, st := range steps {
		if i >= depth {
			wait(i - depth)
		}
		res := &out[i]
		vals := st.vals
		switch st.op {
		case extbuf.BatchDelete:
			res.found = make([]bool, len(st.keys))
		case extbuf.BatchLookup:
			res.vals, res.found = make([]uint64, len(st.keys)), make([]bool, len(st.keys))
			vals = res.vals
		}
		var err error
		if calls[i], err = s.StartBatch(st.op, true, st.keys, vals, nil, res.found); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for i := max(len(steps)-depth, 0); i < len(steps); i++ {
		wait(i)
	}
	return out
}

// TestStartWaitMatchesSynchronous pins the start/wait split against the
// synchronous calls it replaced. Waited for at once, a started batch is
// the synchronous call: same results, same ship LSNs, same model I/Os.
// Kept eight deep, the calls still apply per key in start order — same
// results, same final state, same model I/Os (the per-shard operation
// order is unchanged) — and each returned LSN covers every record the
// call shipped.
func TestStartWaitMatchesSynchronous(t *testing.T) {
	cfg := extbuf.Config{BlockSize: 16, MemoryWords: 256, Seed: 5}
	steps := pipelineStream(40, 64)
	open := func() (*extbuf.Sharded, *shipRecorder) {
		s, err := extbuf.NewSharded("buffered", cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		rec := newShipRecorder()
		s.SetShip(rec.ship)
		return s, rec
	}
	ref, _ := open()
	defer ref.Close()
	want := runSynchronous(t, ref, steps)

	for _, depth := range []int{1, 8} {
		s, rec := open()
		got := runStarted(t, s, steps, depth)
		for i := range steps {
			if !slices.Equal(got[i].vals, want[i].vals) || !slices.Equal(got[i].found, want[i].found) {
				t.Fatalf("depth %d step %d: results %v %v, synchronous %v %v",
					depth, i, got[i].vals, got[i].found, want[i].vals, want[i].found)
			}
			if depth == 1 && got[i].lsn != want[i].lsn {
				t.Fatalf("step %d: ship LSN %d, synchronous %d", i, got[i].lsn, want[i].lsn)
			}
		}
		// Every key's last shipped record is covered by the LSN of the
		// last mutation that named it (a round's keys are its own).
		for i, st := range steps {
			if st.op != extbuf.BatchDelete {
				continue
			}
			for _, k := range st.keys {
				if rec.lsn[k] > got[i].lsn {
					t.Fatalf("depth %d step %d: key %d shipped at lsn %d, call returned %d",
						depth, i, k, rec.lsn[k], got[i].lsn)
				}
			}
		}
		if s.Len() != ref.Len() || s.Stats() != ref.Stats() {
			t.Fatalf("depth %d: Len %d stats %+v, synchronous Len %d stats %+v",
				depth, s.Len(), s.Stats(), ref.Len(), ref.Stats())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		found := make([]bool, 1)
		if _, err := s.StartBatch(extbuf.BatchDelete, true, []uint64{1}, nil, nil, found); !errors.Is(err, extbuf.ErrClosed) {
			t.Fatalf("StartBatch after Close: %v, want ErrClosed", err)
		}
		if _, err := s.DeleteBatchShipInto([]uint64{1, 2}, make([]bool, 2)); !errors.Is(err, extbuf.ErrClosed) {
			t.Fatalf("DeleteBatchShipInto after Close: %v, want ErrClosed", err)
		}
	}

	if _, err := ref.StartBatch(extbuf.BatchInsert, true, []uint64{1, 2}, []uint64{1}, nil, nil); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("short vals: %v, want ErrBatchLength", err)
	}
	if _, err := ref.StartBatch(extbuf.BatchLookup, false, []uint64{1, 2}, make([]uint64, 2), nil, make([]bool, 1)); !errors.Is(err, extbuf.ErrBatchLength) {
		t.Fatalf("short found: %v, want ErrBatchLength", err)
	}
}

// TestStartWaitZeroAllocs: the handle is the request and is pooled with
// its barrier, so a warmed start+wait allocates nothing — with one call
// at a time or several outstanding, for the kinds a served mix sends
// (upsert, lookup, upsert-ttl, compare-swap) — and neither does a
// broadcast. A single table's completed handles are recycled too.
func TestStartWaitZeroAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("sync.Pool drops a share of its puts under the race detector")
			}
		}
	}
	cfg := extbuf.Config{BlockSize: 64, MemoryWords: 1024, ExpectedItems: 20000, Seed: 29}
	s, err := extbuf.NewSharded("knuth", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	single, err := extbuf.OpenEngine("knuth", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	const batch, depth = 128, 4
	var keys, vals, vals2 [depth][]uint64
	var found [depth][]bool
	ops := [depth]extbuf.BatchOp{extbuf.BatchUpsert, extbuf.BatchLookup, extbuf.BatchUpsertTTL, extbuf.BatchCompareSwap}
	rng := xrand.New(13)
	for i := range keys {
		keys[i], vals[i], found[i] = make([]uint64, batch), make([]uint64, batch), make([]bool, batch)
		for j := range keys[i] {
			keys[i][j] = rng.Uint64()
		}
		switch ops[i] {
		case extbuf.BatchUpsertTTL:
			vals2[i] = slices.Repeat([]uint64{^uint64(0)}, batch) // deadlines that never pass
		case extbuf.BatchCompareSwap:
			vals2[i] = vals[i] // swap each value for itself: every swap succeeds
		}
		for _, e := range []extbuf.Engine{s, single} {
			if err := e.UpsertBatch(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var calls [depth]*extbuf.BatchCall
	run := func(e extbuf.Engine) func() {
		return func() {
			for i := range calls {
				var err error
				if calls[i], err = e.StartBatch(ops[i], true, keys[i], vals[i], vals2[i], found[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range calls {
				if _, err := c.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for name, e := range map[string]extbuf.Engine{"sharded": s, "single table": single} {
		run(e)() // warm the handle pool
		if allocs := testing.AllocsPerRun(200, run(e)); allocs != 0 {
			t.Fatalf("%s: steady-state start+wait: %.2f allocs per %d calls, want 0", name, allocs, depth)
		}
	}
	// The broadcasts use the same pooled handle: no request per shard,
	// no error slice per barrier.
	broadcasts := func() {
		if s.Len() == 0 || s.StoreStats() != (extbuf.StoreStats{}) || s.ExpiryStats() != (extbuf.ExpiryStats{Tracked: batch}) {
			t.Fatal("mem-backed engine: want entries, zero store costs, one batch of deadlines")
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	broadcasts()
	if allocs := testing.AllocsPerRun(200, broadcasts); allocs != 0 {
		t.Fatalf("Len+StoreStats+ExpiryStats+Sync: %.2f allocs, want 0", allocs)
	}
}

// TestStartWaitNoShip: a start with ship false applies and the sink
// hears nothing, on either engine; and a lookup ships nothing even with
// ship set. The subtest is "sync" because every start returns a handle
// whose Wait reports the batch applied — there is no write-behind path.
func TestStartWaitNoShip(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		sharded, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		single, err := extbuf.OpenEngine("buffered", extbuf.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]extbuf.Engine{"sharded": sharded, "single table": single} {
			defer e.Close()
			rec := newShipRecorder()
			e.SetShip(rec.ship)
			wait := func(what string, h *extbuf.BatchCall, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %s: %v", name, what, err)
				}
				if lsn, err := h.Wait(); err != nil || lsn != 0 {
					t.Fatalf("%s: %s: Wait = lsn %d, %v; want 0, nil", name, what, lsn, err)
				}
			}
			h, err := e.StartBatch(extbuf.BatchInsert, false, []uint64{1, 2, 3, 4}, []uint64{10, 20, 30, 40}, nil, nil)
			wait("insert", h, err)
			found := make([]bool, 2)
			h, err = e.StartBatch(extbuf.BatchDelete, false, []uint64{4, 5}, nil, nil, found)
			wait("delete", h, err)
			if !found[0] || found[1] {
				t.Fatalf("%s: delete of {4, 5}: found %v", name, found)
			}
			got, hit := make([]uint64, 2), make([]bool, 2)
			h, err = e.StartBatch(extbuf.BatchLookup, true, []uint64{1, 4}, got, nil, hit)
			wait("lookup", h, err)
			if got[0] != 10 || !hit[0] || hit[1] {
				t.Fatalf("%s: lookup of {1, 4}: %v %v", name, got, hit)
			}
			if n := e.Len(); n != 3 {
				t.Fatalf("%s: Len = %d, want 3", name, n)
			}
			if rec.next != 1 {
				t.Fatalf("%s: %d records reached the ship sink", name, rec.next-1)
			}
		}
	})
}

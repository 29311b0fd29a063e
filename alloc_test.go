// Steady-state allocation contract: once a table has reached its
// working-set shape, the per-operation path — hash, chain walk, block
// read/write-back through the store — allocates nothing on the mem
// backend. Disk-owned scratch buffers (iomodel.Disk.AcquireBuf), the
// pinned zero-copy read path (Disk.ReadPinned) and the preallocated
// buffer-pool arena are what make this hold; these tests gate it so a
// future change cannot quietly reintroduce per-op garbage.
package extbuf_test

import (
	"strings"
	"testing"

	"extbuf"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// steadyTable builds a populated table of the given structure on the
// mem backend, with keys to exercise; keys[i] holds value i.
func steadyTable(t testing.TB, structure string, n int) (extbuf.Engine, []uint64) {
	cfg := extbuf.Config{BlockSize: 64, MemoryWords: 1024, Beta: 8,
		ExpectedItems: n, Seed: 17}
	if structure == "extendible" {
		cfg.MemoryWords = int64(8*n/64 + 4096)
	}
	tab, err := extbuf.OpenEngine(structure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.Keys(xrand.New(23), n)
	for i, k := range keys {
		if err := tab.Insert(k, uint64(i)); err != nil {
			tab.Close()
			t.Fatal(err)
		}
	}
	return tab, keys
}

// TestSteadyStateZeroAllocs is the acceptance gate: overwrites and
// lookups on a warmed mem-backend table run allocation-free.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		structure string
		op        string
	}{
		{"knuth", "upsert"},
		{"knuth", "lookup"},
		{"linprobe", "lookup"},
		{"twolevel", "lookup"},
		{"extendible", "lookup"},
		{"buffered", "lookup"},
		// Misses: on buffered, once the lookups have bought the cascade's
		// merge (the merge itself may grow its scratch) a miss is one
		// probe of Ĥ and a counter compare.
		{"buffered", "lookup-miss"},
		{"knuth", "lookup-miss"},
		// The read-modify-write probes hand a callback down to the block
		// walk; it must stay on the stack.
		{"buffered", "upsert"},
		{"buffered", "cas"},
		{"knuth", "cas"},
		{"knuth", "delete+insert"},
		// The TTL/CAS batch forms gather what they ship into scratch
		// the guard owns, with a sink installed or not.
		{"buffered", "upsert-ttl"},
		{"buffered", "expire"},
		{"buffered", "upsert-ttl+sink"},
		{"buffered", "expire+sink"},
		{"buffered", "cas+sink"},
	}
	for _, tc := range cases {
		t.Run(tc.structure+"/"+tc.op, func(t *testing.T) {
			tab, keys := steadyTable(t, tc.structure, 20000)
			defer tab.Close()
			op, sink := strings.CutSuffix(tc.op, "+sink")
			if sink {
				next := uint64(1)
				tab.SetShip(func(_ uint8, keys, _ []uint64) (uint64, error) {
					first := next
					next += uint64(len(keys))
					return first, nil
				})
			}
			i := 0
			var run func()
			switch op {
			case "upsert-ttl", "expire":
				// A deadline far in the future: the keys stay live.
				const batch = 16
				vals, deadlines, found := make([]uint64, batch), make([]uint64, batch), make([]bool, batch)
				for j := range deadlines {
					deadlines[j] = ^uint64(0)
				}
				run = func() {
					ks := keys[i%(len(keys)-batch):][:batch]
					i += batch
					var lsn uint64
					var err error
					if op == "expire" {
						lsn, err = extbuf.ExpireForTest(tab, true, ks, deadlines, found)
					} else {
						lsn, err = tab.UpsertTTLBatchShip(ks, vals, deadlines)
					}
					if err != nil || (lsn != 0) != sink {
						t.Fatalf("lsn %d, err %v (sink installed: %v)", lsn, err, sink)
					}
				}
				for i < len(keys) {
					run() // every key gets a deadline: the expiry index reaches its working-set shape
				}
			case "upsert":
				run = func() {
					k := keys[i%len(keys)]
					i++
					if err := tab.Upsert(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
			case "lookup":
				run = func() {
					k := keys[i%len(keys)]
					i++
					if _, ok := tab.Lookup(k); !ok {
						t.Fatal("lost key")
					}
				}
			case "lookup-miss":
				miss := func() {
					i++
					if _, ok := tab.Lookup(uint64(i) | 1<<63); ok {
						t.Fatal("found an absent key")
					}
				}
				run = miss
				for miss(); extbuf.MergeStatsForTest(tab).ReadDebt > 0; {
					miss() // until the read-paid merge has fired
				}
			case "cas":
				cas := newSteadyCAS(tab, keys)
				run = func() {
					if !cas.swapNext() {
						t.Fatal("CAS against the stored value refused")
					}
				}
			case "delete+insert":
				run = func() {
					k := keys[i%len(keys)]
					i++
					if !tab.Delete(k) {
						t.Fatal("lost key")
					}
					if err := tab.Insert(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			run() // warm the disk scratch freelist
			if allocs := testing.AllocsPerRun(400, run); allocs != 0 {
				t.Fatalf("steady-state %s %s: %.2f allocs/op, want 0",
					tc.structure, tc.op, allocs)
			}
		})
	}
}

// steadyCAS cycles compare-and-swaps over a steadyTable's keys, each
// against the value the key currently holds, so every one swaps.
type steadyCAS struct {
	tab           extbuf.Engine
	keys, cur     []uint64
	key, old, new []uint64 // one-element batch, reused
	swapped       []bool
	i             int
}

func newSteadyCAS(tab extbuf.Engine, keys []uint64) *steadyCAS {
	c := &steadyCAS{tab: tab, keys: keys, cur: make([]uint64, len(keys)),
		key: make([]uint64, 1), old: make([]uint64, 1), new: make([]uint64, 1), swapped: make([]bool, 1)}
	for i := range c.cur {
		c.cur[i] = uint64(i)
	}
	return c
}

func (c *steadyCAS) swapNext() bool {
	j := c.i % len(c.keys)
	c.i++
	c.key[0], c.old[0], c.new[0] = c.keys[j], c.cur[j], c.cur[j]+1
	if _, err := c.tab.CompareSwapBatchShip(c.key, c.old, c.new, c.swapped); err != nil || !c.swapped[0] {
		return false
	}
	c.cur[j]++
	return true
}

// reportIOs reports the model I/Os per benchmark iteration since base —
// the paper's currency beside ns/op (cmd/benchdiff prints the column).
func reportIOs(b *testing.B, tab extbuf.Table, base extbuf.Stats) {
	b.ReportMetric(float64(tab.Stats().IOs()-base.IOs())/float64(b.N), "ios/op")
}

// --- Steady-state micro-benchmarks (the CI alloc gate watches these) ---

// BenchmarkSteadyStateUpsert measures the warmed overwrite path with
// allocation reporting: 0 allocs/op on the mem backend.
func BenchmarkSteadyStateUpsert(b *testing.B) {
	for _, structure := range []string{"knuth", "twolevel"} {
		b.Run(structure, func(b *testing.B) {
			tab, keys := steadyTable(b, structure, 50000)
			defer tab.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tab.Upsert(keys[i%len(keys)], uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSteadyStateLookup measures the warmed read path with
// allocation reporting: 0 allocs/op on the mem backend.
func BenchmarkSteadyStateLookup(b *testing.B) {
	for _, structure := range []string{"knuth", "buffered"} {
		b.Run(structure, func(b *testing.B) {
			tab, keys := steadyTable(b, structure, 50000)
			defer tab.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tab.Lookup(keys[i%len(keys)]); !ok {
					b.Fatal("lost key")
				}
			}
		})
	}
}

// BenchmarkSteadyStateLookupMiss measures lookups of absent keys with
// allocation and model-I/O reporting. On buffered a miss pays one I/O per
// occupied cascade level after its Ĥ probe, until the misses have paid
// for the cascade's merge (DESIGN.md §3a, "Read-paid merges"); over a
// long run ios/op settles at the single probe knuth pays. (60000 keys,
// not the other benchmarks' 50000: at 50000 the last insert-triggered
// merge has just emptied the cascade; at 60000 four levels are occupied
// and the first ~1000 misses buy their merge for ~4300 I/Os.)
func BenchmarkSteadyStateLookupMiss(b *testing.B) {
	for _, structure := range []string{"buffered", "knuth"} {
		b.Run(structure, func(b *testing.B) {
			tab, _ := steadyTable(b, structure, 60000)
			defer tab.Close()
			base := tab.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tab.Lookup(uint64(i) | 1<<63); ok {
					b.Fatal("found an absent key")
				}
			}
			reportIOs(b, tab, base)
		})
	}
}

// BenchmarkSteadyStateDelete measures delete + re-insert pairs (one
// pair per op, so the table stays at its working-set shape) with
// allocation and model-I/O reporting. On buffered the re-insert lands
// in H_0 and is later merged down, so its pair prices a delete of a
// mostly Ĥ-resident key plus an amortized insert.
func BenchmarkSteadyStateDelete(b *testing.B) {
	for _, structure := range []string{"buffered", "knuth"} {
		b.Run(structure, func(b *testing.B) {
			tab, keys := steadyTable(b, structure, 50000)
			defer tab.Close()
			base := tab.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if !tab.Delete(k) {
					b.Fatal("lost key")
				}
				if err := tab.Insert(k, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			reportIOs(b, tab, base)
		})
	}
}

// BenchmarkSteadyStateCAS measures compare-and-swaps that all swap, with
// allocation and model-I/O reporting: one probe on buffered, a lookup
// plus an upsert on the baselines.
func BenchmarkSteadyStateCAS(b *testing.B) {
	for _, structure := range []string{"buffered", "knuth"} {
		b.Run(structure, func(b *testing.B) {
			tab, keys := steadyTable(b, structure, 50000)
			defer tab.Close()
			cas := newSteadyCAS(tab, keys)
			base := tab.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !cas.swapNext() {
					b.Fatal("CAS against the stored value refused")
				}
			}
			reportIOs(b, tab, base)
		})
	}
}

// BenchmarkSteadyStateEngineOps measures the sharded engine's pooled
// single-op and batch submission paths with allocation reporting. The
// batch path amortizes its per-batch bookkeeping over the pooled
// request scratch, so allocs/op rounds to 0 at batch 256.
func BenchmarkSteadyStateEngineOps(b *testing.B) {
	for _, c := range []struct {
		name  string
		batch int
	}{{"single", 1}, {"batch256", 256}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := extbuf.NewSharded("knuth", extbuf.Config{
				BlockSize: 64, MemoryWords: 1024, ExpectedItems: 50000, Seed: 29,
			}, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			keys := workload.Keys(xrand.New(31), 50000)
			vals := make([]uint64, len(keys))
			kc := workload.Chunks(keys, c.batch)
			vc := workload.Chunks(vals, c.batch)
			for i := range kc {
				if err := s.UpsertBatch(kc[i], vc[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if c.batch == 1 {
				for i := 0; i < b.N; i++ {
					if err := s.Upsert(keys[i%len(keys)], uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for done := 0; done < b.N; {
					chunk := kc[(done/c.batch)%len(kc)]
					vchunk := vc[(done/c.batch)%len(vc)]
					if err := s.UpsertBatch(chunk, vchunk); err != nil {
						b.Fatal(err)
					}
					done += len(chunk)
				}
			}
		})
	}
}

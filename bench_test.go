// Benchmarks regenerating every artifact of the paper's evaluation (see
// DESIGN.md §4 for the experiment index). Each experiment-level
// benchmark runs the corresponding harness driver and reports the key
// measured quantity via ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full series; the cmd/ binaries print the same rows as
// human-readable tables. Per-structure micro-benchmarks report the
// simulated disk I/Os per operation, the quantity the paper's t_u and
// t_q measure (wall time of the simulator is also reported but is not a
// claim of the paper).
package extbuf_test

import (
	"fmt"
	"math"
	"testing"

	"extbuf"
	"extbuf/internal/binball"
	"extbuf/internal/core"
	"extbuf/internal/experiments"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// benchCfg is the scaled-down experiment configuration used by the
// experiment-level benchmarks (cmd binaries run the full Default()).
func benchCfg() experiments.Config {
	cfg := experiments.Default()
	cfg.N = 20000
	cfg.QuerySamples = 2000
	return cfg
}

// --- Experiment F1: Figure 1 ---

func BenchmarkFigure1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiments T1.1–T1.3: Theorem 1 regimes ---

func benchStaged(b *testing.B, c float64) {
	cfg := benchCfg()
	fb := float64(cfg.B)
	delta := 1 / math.Pow(fb, c)
	var tu float64
	for i := 0; i < b.N; i++ {
		model := iomodel.NewModel(cfg.B, cfg.StagedMWords)
		s, err := core.NewStaged(model, hashfn.NewIdeal(cfg.Seed), core.StagedConfig{Delta: delta})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(cfg.Seed)
		for _, k := range workload.Keys(rng, cfg.N) {
			s.Insert(k, 0)
		}
		tu = float64(model.Counters().IOs()) / float64(cfg.N)
		s.Close()
	}
	b.ReportMetric(tu, "tu-diskIOs/insert")
}

func BenchmarkTheorem1CLow(b *testing.B)  { benchStaged(b, 0.5) } // T1.3: c < 1
func BenchmarkTheorem1C1(b *testing.B)    { benchStaged(b, 1.0) } // T1.2: c = 1
func BenchmarkTheorem1CHigh(b *testing.B) { benchStaged(b, 1.5) } // T1.1: c > 1

// --- Experiments T2.1–T2.2: Theorem 2 ---

func BenchmarkTheorem2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Theorem2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem2Eps(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Theorem2Eps(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment L5: Lemma 5 ---

func BenchmarkLemma5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Lemma5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiments L3/L4: bin-ball games ---

func BenchmarkBinBallLemma3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.BinBallLemma3(cfg, 200)
	}
}

func BenchmarkBinBallLemma4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.BinBallLemma4(cfg, 200)
	}
}

func BenchmarkBinBallPlay(b *testing.B) {
	rng := xrand.New(1)
	g := binball.Game{S: 1000, R: 10000, T: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binball.Play(g, rng)
	}
}

// --- Experiments EQ1/L2: zone audits ---

func BenchmarkZoneAudit(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ZoneAudit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGoodFunctions(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GoodFunctions(cfg, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment K64: Knuth baseline ---

func BenchmarkKnuthQuery(b *testing.B) {
	cfg := benchCfg()
	cfg.QuerySamples = 1000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KnuthBaseline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment JP: Jensen–Pagh point ---

func BenchmarkJensenPagh(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.JensenPagh(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment ABL: ablations of design choices ---

func BenchmarkAblations(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-structure micro-benchmarks: diskIOs/op is the paper's metric ---

func benchInsert(b *testing.B, structure string) {
	cfg := extbuf.Config{BlockSize: 64, MemoryWords: 1024, Beta: 8,
		ExpectedItems: b.N + 1, Seed: 9}
	if structure == "extendible" {
		// The directory costs two words a slot and ends a power of two
		// a few times the bucket count: 2^17 slots for the 31 k full
		// buckets of b.N = 2 M. Budget 16 slots a full bucket.
		cfg.MemoryWords = int64(2*16*(b.N+4096)/64 + 4096)
	}
	tab, err := extbuf.Open(structure, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	rng := xrand.New(33)
	keys := make([]uint64, b.N)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Insert(keys[i], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tab.Stats().IOs())/float64(b.N), "diskIOs/op")
}

func benchLookup(b *testing.B, structure string) {
	const n = 50000
	cfg := extbuf.Config{BlockSize: 64, MemoryWords: 1024, Beta: 8,
		ExpectedItems: n, Seed: 9}
	if structure == "extendible" {
		cfg.MemoryWords = 8*n/64 + 4096
	}
	tab, err := extbuf.Open(structure, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	rng := xrand.New(34)
	keys := workload.Keys(rng, n)
	for i, k := range keys {
		if err := tab.Insert(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	before := tab.Stats().IOs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Lookup(keys[i%n]); !ok {
			b.Fatal("lost key")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tab.Stats().IOs()-before)/float64(b.N), "diskIOs/op")
}

func BenchmarkInsert(b *testing.B) {
	for _, s := range extbuf.Structures() {
		b.Run(s, func(b *testing.B) { benchInsert(b, s) })
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, s := range extbuf.Structures() {
		b.Run(s, func(b *testing.B) { benchLookup(b, s) })
	}
}

// BenchmarkBetaSweep reports the (t_u, t_q) pair at each beta — the
// upper-bound curve of Figure 1 as raw metrics.
func BenchmarkBetaSweep(b *testing.B) {
	for _, beta := range []int{2, 8, 32, 64} {
		b.Run(betaName(beta), func(b *testing.B) {
			const n, q = 30000, 3000
			var tu, tq float64
			for i := 0; i < b.N; i++ {
				tab, err := extbuf.New(extbuf.Config{BlockSize: 64, MemoryWords: 1024,
					Beta: beta, Seed: uint64(beta)})
				if err != nil {
					b.Fatal(err)
				}
				rng := xrand.New(5)
				keys := workload.Keys(rng, n)
				for j, k := range keys {
					if err := tab.Insert(k, uint64(j)); err != nil {
						b.Fatal(err)
					}
				}
				ins := tab.Stats().IOs()
				for j := 0; j < q; j++ {
					tab.Lookup(keys[rng.Intn(n)])
				}
				tu = float64(ins) / n
				tq = float64(tab.Stats().IOs()-ins) / q
				tab.Close()
			}
			b.ReportMetric(tu, "tu-diskIOs/insert")
			b.ReportMetric(tq, "tq-diskIOs/lookup")
		})
	}
}

// --- Sharded engine benchmarks: the batch pipeline's throughput ---

// benchShardedBatch drives the pipelined engine with batches of the
// given size, reporting wall-clock throughput of the batch APIs. These
// are the benchmarks CI's regression gate watches.
func benchShardedBatch(b *testing.B, shards, batch int) {
	s, err := extbuf.NewSharded("buffered", extbuf.Config{
		BlockSize: 64, MemoryWords: 1024, Beta: 8, Seed: 21,
	}, shards)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := xrand.New(44)
	keys := make([]uint64, b.N)
	vals := make([]uint64, b.N)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = uint64(i)
	}
	kc := workload.Chunks(keys, batch)
	vc := workload.Chunks(vals, batch)
	b.ResetTimer()
	for i := range kc {
		if err := s.InsertBatch(kc[i], vc[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().IOs())/float64(b.N), "diskIOs/op")
}

func BenchmarkShardedBatchInsert(b *testing.B) {
	for _, c := range []struct{ shards, batch int }{
		{1, 1}, {4, 64}, {8, 256},
	} {
		b.Run(fmt.Sprintf("shards=%d/batch=%d", c.shards, c.batch), func(b *testing.B) {
			benchShardedBatch(b, c.shards, c.batch)
		})
	}
}

func BenchmarkShardedBatchLookup(b *testing.B) {
	const n, batch = 50000, 256
	s, err := extbuf.NewSharded("buffered", extbuf.Config{
		BlockSize: 64, MemoryWords: 1024, Beta: 8, Seed: 22,
	}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := xrand.New(45)
	keys := workload.Keys(rng, n)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	kc := workload.Chunks(keys, batch)
	vc := workload.Chunks(vals, batch)
	for i := range kc {
		if err := s.InsertBatch(kc[i], vc[i]); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]uint64, batch)
	b.ResetTimer()
	for done := 0; done < b.N; done += len(q) {
		if left := b.N - done; left < len(q) {
			q = q[:left]
		}
		for i := range q {
			q[i] = keys[rng.Intn(n)]
		}
		_, found, err := s.LookupBatch(q)
		if err != nil {
			b.Fatal(err)
		}
		for i := range found {
			if !found[i] {
				b.Fatal("lost key")
			}
		}
	}
}

func betaName(beta int) string {
	switch beta {
	case 2:
		return "beta=2"
	case 8:
		return "beta=8"
	case 32:
		return "beta=32"
	default:
		return "beta=64"
	}
}

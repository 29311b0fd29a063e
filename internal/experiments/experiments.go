// Package experiments is the reproduction harness: one driver per
// experiment ID in DESIGN.md §4, each regenerating the corresponding
// artifact of Wei, Yi, Zhang, "Dynamic External Hashing: The Limit of
// Buffering" (SPAA 2009) as a plain-text table.
//
// The paper has a single figure (Figure 1, the query-insertion tradeoff)
// and states its results as theorems and lemmas; the drivers here emit
// the measured counterpart of each:
//
//	F1    Figure1          the full tradeoff frontier
//	T1.*  Theorem1         staged-strategy insertion costs per regime
//	T2.*  Theorem2/Eps     the paper's structure, both parameterizations
//	L5    Lemma5           logarithmic method costs
//	L3/L4 BinBallLemma3/4  bin-ball game concentration
//	EQ1   ZoneAudit        Eq. (1) and zone sizes for every structure
//	L2    GoodFunctions    characteristic-vector goodness
//	K64   KnuthBaseline    classic table query costs vs load factor
//	JP    JensenPagh       the two-level high-load table
//
// Every driver takes a Config so the benchmarks can run scaled-down
// versions, and returns a tablefmt.Table ready to print.
package experiments

import (
	"fmt"
	"math"

	"extbuf/internal/core"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
	"extbuf/internal/zones"
)

// Config carries the model and workload parameters shared by all
// drivers.
type Config struct {
	B            int    // block size in items
	MWords       int64  // memory budget in words
	N            int    // items inserted
	QuerySamples int    // successful lookups sampled for t_q
	Seed         uint64 // master seed; every driver derives sub-streams
	HashFamily   string // "ideal" (default), "multshift", "tabulation"
	// StagedMWords is the memory budget used for the staged
	// lower-bound traces. The paper's Theorem 1 needs n >> m*b^(1+2c)
	// to reach its asymptotics — far beyond laptop n at the default m —
	// and since the lower bound holds for every m, the traces use a
	// deliberately small budget to make the regime boundary visible.
	StagedMWords int64
}

// Default returns the configuration used by the cmd binaries: a
// realistic block size (the paper: "typical values of b range from a
// few hundreds to a thousand") and enough items for stable averages
// while remaining laptop-fast.
func Default() Config {
	return Config{B: 128, MWords: 2048, N: 80000, QuerySamples: 4000, Seed: 42, StagedMWords: 256}
}

// Scaled returns cfg with N and QuerySamples scaled by f (for quick
// benchmark runs).
func (cfg Config) Scaled(f float64) Config {
	out := cfg
	out.N = int(float64(cfg.N) * f)
	if out.N < 1000 {
		out.N = 1000
	}
	out.QuerySamples = int(float64(cfg.QuerySamples) * f)
	if out.QuerySamples < 200 {
		out.QuerySamples = 200
	}
	return out
}

func (cfg Config) rng(salt uint64) *xrand.Rand {
	return xrand.New(cfg.Seed ^ (salt * 0x9e3779b97f4a7c15))
}

func (cfg Config) fn(salt uint64) hashfn.Fn {
	return hashfn.Family(cfg.HashFamily, cfg.Seed^salt)
}

// memModel is a model on the free in-memory store: the one the tables
// count on.
func (cfg Config) memModel(words int64) *iomodel.Model { return iomodel.NewModel(cfg.B, words) }

// betaFor returns the paper's beta = b^c, clamped into [2, b].
func betaFor(b int, c float64) int {
	beta := int(math.Round(math.Pow(float64(b), c)))
	if beta < 2 {
		beta = 2
	}
	if beta > b {
		beta = b
	}
	return beta
}

// inserter abstracts the structures the measurement loop drives.
type inserter interface {
	zones.Subject
	Len() int
}

// measured is one structure's measured costs over a run.
type measured struct {
	tu      float64 // amortized I/Os per insertion
	tq      float64 // measured expected average successful lookup I/Os
	tqModel float64 // zone-model query cost (paper's accounting)
	report  zones.Report
}

// runCore builds and drives a Theorem 2 table, returning its costs.
func (cfg Config) runCore(beta int, salt uint64) (measured, error) {
	model := iomodel.NewModel(cfg.B, cfg.MWords)
	tab, err := core.New(model, cfg.fn(salt), core.Config{Beta: beta, Gamma: 2})
	if err != nil {
		return measured{}, err
	}
	defer tab.Close()
	rng := cfg.rng(salt)
	keys := workload.Keys(rng, cfg.N)
	c0 := model.Counters()
	for _, k := range keys {
		if _, err := tab.Insert(k, 0); err != nil {
			return measured{}, err
		}
	}
	tu := float64(model.Counters().Sub(c0).IOs()) / float64(cfg.N)
	qs := workload.SuccessfulQueries(rng, keys, cfg.N, cfg.QuerySamples)
	c1 := model.Counters()
	for _, q := range qs {
		if _, ok, _ := tab.Lookup(q); !ok {
			return measured{}, fmt.Errorf("experiments: lost key %d", q)
		}
	}
	tq := float64(model.Counters().Sub(c1).IOs()) / float64(len(qs))
	rep := zones.Audit(tab, keys)
	return measured{tu: tu, tq: tq, tqModel: rep.ModelQueryCost(), report: rep}, nil
}

// runStaged builds and drives a staged lower-bound strategy on the
// (smaller) StagedMWords budget; see the Config field comment.
func (cfg Config) runStaged(delta float64, salt uint64) (measured, error) {
	mw := cfg.StagedMWords
	if mw == 0 {
		mw = cfg.MWords
	}
	model := iomodel.NewModel(cfg.B, mw)
	s, err := core.NewStaged(model, cfg.fn(salt), core.StagedConfig{Delta: delta})
	if err != nil {
		return measured{}, err
	}
	defer s.Close()
	rng := cfg.rng(salt)
	keys := workload.Keys(rng, cfg.N)
	c0 := model.Counters()
	for _, k := range keys {
		s.Insert(k, 0)
	}
	tu := float64(model.Counters().Sub(c0).IOs()) / float64(cfg.N)
	rep := zones.Audit(s, keys)
	return measured{tu: tu, tq: math.NaN(), tqModel: rep.ModelQueryCost(), report: rep}, nil
}

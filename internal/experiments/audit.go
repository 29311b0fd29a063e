package experiments

import (
	"math"

	"extbuf/internal/chainhash"
	"extbuf/internal/core"
	"extbuf/internal/exthash"
	"extbuf/internal/iomodel"
	"extbuf/internal/linhash"
	"extbuf/internal/linprobe"
	"extbuf/internal/logmethod"
	"extbuf/internal/tablefmt"
	"extbuf/internal/twolevel"
	"extbuf/internal/workload"
	"extbuf/internal/zones"
)

// auditSubject pairs a constructed structure with its insert driver.
type auditSubject struct {
	name   string
	sub    zones.Subject
	insert func(key uint64) error
}

// buildAll constructs every structure in the repository on its own
// model, ready for a zone audit. newModel makes each model from its
// memory budget in words; the tables use memModel.
func (cfg Config) buildAll(salt uint64, newModel func(words int64) *iomodel.Model) ([]auditSubject, error) {
	var subs []auditSubject

	mChain := newModel(cfg.MWords)
	chain, err := chainhash.New(mChain, cfg.fn(salt+1), 2*cfg.N/cfg.B)
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"chainhash", chain,
		func(k uint64) error { chain.Insert(k, 0); return nil }})

	mProbe := newModel(cfg.MWords)
	probe, err := linprobe.New(mProbe, cfg.fn(salt+2), 2*cfg.N/cfg.B)
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"linprobe", probe,
		func(k uint64) error { _, err := probe.Insert(k, 0); return err }})

	// Extendible hashing's in-memory directory needs Theta(n/b) words —
	// a real cost of the scheme the memory accounting makes visible, so
	// its model is provisioned for it explicitly.
	mExt := newModel(cfg.MWords + int64(8*cfg.N/cfg.B))
	ext, err := exthash.New(mExt, cfg.fn(salt+3), 4)
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"exthash", ext,
		func(k uint64) error { ext.Insert(k, 0); return nil }})

	mLin := newModel(cfg.MWords)
	lin, err := linhash.New(mLin, cfg.fn(salt+4), 2)
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"linhash", lin,
		func(k uint64) error { lin.Insert(k, 0); return nil }})

	mTwo := newModel(cfg.MWords)
	two, err := twolevel.New(mTwo, cfg.fn(salt+5), twolevel.HomeBucketsFor(cfg.N, cfg.B))
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"twolevel(JP)", two,
		func(k uint64) error { two.Insert(k, 0); return nil }})

	mLog := newModel(cfg.MWords)
	logm, err := logmethod.New(mLog, cfg.fn(salt+6), logmethod.Config{Gamma: 2})
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"logmethod", logm,
		func(k uint64) error { _, err := logm.Insert(k, 0); return err }})

	mCore := newModel(cfg.MWords)
	ct, err := core.New(mCore, cfg.fn(salt+7), core.Config{Beta: betaFor(cfg.B, 0.5), Gamma: 2})
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"core(Thm2)", ct,
		func(k uint64) error { _, err := ct.Insert(k, 0); return err }})

	mStaged := newModel(cfg.MWords)
	st, err := core.NewStaged(mStaged, cfg.fn(salt+8), core.StagedConfig{Delta: 1 / math.Sqrt(float64(cfg.B))})
	if err != nil {
		return nil, err
	}
	subs = append(subs, auditSubject{"staged(c=0.5)", st,
		func(k uint64) error { st.Insert(k, 0); return nil }})

	return subs, nil
}

// ZoneAudit verifies Eq. (1) and reports the zone decomposition of every
// structure after n inserts: |M|, |F|, |S|, the zone-model query cost,
// and the Eq. (1) slack at the delta each structure targets.
//
// Shape to check: every structure satisfies Eq. (1) at its design delta;
// the plain tables are almost all fast zone; the logarithmic method has
// a large slow zone (which is why its t_q is Omega(1) away from 1); the
// Theorem 2 structure keeps |S|/k = O(1/beta).
func ZoneAudit(cfg Config) (*tablefmt.Table, error) {
	t := tablefmt.New("Eq. (1) zone audit: |S| <= m + delta*k",
		"structure", "|M|", "|F|", "|S|", "slow frac", "tq_model",
		"design delta", "Eq.(1) ok", "slack")
	t.AddNote("b=%d m=%d n=%d", cfg.B, cfg.MWords, cfg.N)
	subs, err := cfg.buildAll(1000, cfg.memModel)
	if err != nil {
		return nil, err
	}
	rng := cfg.rng(1001)
	keys := workload.Keys(rng, cfg.N)
	deltas := map[string]float64{
		"chainhash": 0.02,
		"linprobe":  0.02,
		"exthash":   0.001,
		// linhash runs at fill 0.85 by default; its overflow-chain mass
		// (the slow zone) is ~0.1 of all items, so that is the delta its
		// query cost actually targets.
		"linhash":       0.15,
		"twolevel(JP)":  2 / math.Sqrt(float64(cfg.B)),
		"logmethod":     1.0, // no sub-constant delta: the audit shows why
		"core(Thm2)":    3 / math.Pow(float64(cfg.B), 0.5),
		"staged(c=0.5)": 1.2 / math.Pow(float64(cfg.B), 0.5),
	}
	for _, s := range subs {
		for _, k := range keys {
			if err := s.insert(k); err != nil {
				return nil, err
			}
		}
		rep := zones.Audit(s.sub, keys)
		delta := deltas[s.name]
		ok, slack := rep.CheckEq1(cfg.MWords, delta)
		t.AddRow(s.name, rep.M, rep.F, rep.S, rep.SlowFraction(),
			rep.ModelQueryCost(), delta, ok, slack)
	}
	return t, nil
}

// GoodFunctions reproduces Lemma 2's premise empirically: every
// structure that answers queries near 1 I/O must use a "good" address
// function — small total mass lambda_f on overloaded indices. The
// characteristic vector is estimated by Monte Carlo over fresh uniform
// keys; rho is set per the paper's proof parameters at c = 1/2.
func GoodFunctions(cfg Config, samples int) (*tablefmt.Table, error) {
	t := tablefmt.New("Lemma 2: characteristic vectors and good functions",
		"structure", "addressed blocks", "max alpha*d", "lambda_f", "phi", "good?")
	t.AddNote("alpha estimated over %d sampled keys; rho, phi per §2 at c=0.5", samples)
	subs, err := cfg.buildAll(1100, cfg.memModel)
	if err != nil {
		return nil, err
	}
	rng := cfg.rng(1101)
	keys := workload.Keys(rng, cfg.N)
	pp := zones.ParamsFor(0.5, cfg.B, cfg.N, 0)
	for _, s := range subs {
		for _, k := range keys {
			if err := s.insert(k); err != nil {
				return nil, err
			}
		}
		alphas := zones.CharVector(s.sub, cfg.rng(1102), samples)
		lambda, _ := zones.Lambda(alphas, pp.Rho)
		var maxA float64
		for _, a := range alphas {
			if a > maxA {
				maxA = a
			}
		}
		t.AddRow(s.name, len(alphas), maxA*float64(len(alphas)), lambda,
			pp.Phi, zones.IsGood(lambda, pp.Phi))
	}
	return t, nil
}

// JensenPagh reproduces the cited Jensen–Pagh point on the tradeoff: at
// load factor 1 - O(1/sqrt(b)), queries and updates both cost
// 1 + O(1/sqrt(b)) I/Os (via the repository's two-level substitution).
func JensenPagh(cfg Config) (*tablefmt.Table, error) {
	t := tablefmt.New("Jensen–Pagh [12] point: alpha = 1 - 1/sqrt(b)",
		"b", "load factor", "tu(measured)", "tq(measured)",
		"1 + 2/sqrt(b)", "overflow frac", "1/sqrt(b)")
	for i, b := range []int{16, 64, 256} {
		model := iomodel.NewModel(b, cfg.MWords)
		tab, err := twolevel.New(model, cfg.fn(uint64(1200+i)), twolevel.HomeBucketsFor(cfg.N, b))
		if err != nil {
			return nil, err
		}
		rng := cfg.rng(uint64(1200 + i))
		keys := workload.Keys(rng, cfg.N)
		c0 := model.Counters()
		for _, k := range keys {
			tab.Insert(k, 0)
		}
		tu := float64(model.Counters().Sub(c0).IOs()) / float64(cfg.N)
		qs := workload.SuccessfulQueries(rng, keys, cfg.N, cfg.QuerySamples)
		c1 := model.Counters()
		for _, q := range qs {
			tab.Lookup(q)
		}
		tq := float64(model.Counters().Sub(c1).IOs()) / float64(len(qs))
		rs := 1 / math.Sqrt(float64(b))
		t.AddRow(b, tab.LoadFactor(), tu, tq, 1+2*rs,
			float64(tab.OverflowLen())/float64(cfg.N), rs)
	}
	return t, nil
}

// Command paper regenerates every experiment table of the reproduction
// in one run — Figure 1, Theorems 1 and 2 (both forms), Lemma 5, the
// bin-ball lemmas, the zone audits, the Knuth baseline and the
// Jensen–Pagh point. This is the one-command counterpart of
// EXPERIMENTS.md.
//
// Usage:
//
//	paper [-scale f] [-seed s] [-trials n]
//
// -scale 0.25 runs a quarter-size workload for a fast smoke pass; its
// output is testdata/paper_scale025.golden, which the package's test
// checks byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"extbuf/internal/experiments"
	"extbuf/internal/tablefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Uint64("seed", 42, "master seed")
	trials := flag.Int("trials", 2000, "bin-ball Monte Carlo trials")
	flag.Parse()

	cfg, err := config(*scale, *seed)
	if err == nil {
		err = run(os.Stdout, cfg, *trials)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// config is the default configuration at the given scale and seed.
func config(scale float64, seed uint64) (experiments.Config, error) {
	cfg := experiments.Default()
	cfg.Seed = seed
	if !(scale > 0) || math.IsInf(scale, 1) {
		return cfg, fmt.Errorf("-scale %v: want a finite factor > 0", scale)
	}
	if scale != 1.0 {
		cfg = cfg.Scaled(scale)
	}
	return cfg, nil
}

// run writes every table to w, each under its experiment ID.
func run(w io.Writer, cfg experiments.Config, trials int) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: want at least 1", trials)
	}
	drivers := []struct {
		id  string
		run func() (*tablefmt.Table, error)
	}{
		{"F1", func() (*tablefmt.Table, error) { return experiments.Figure1(cfg) }},
		{"T1.1-T1.3", func() (*tablefmt.Table, error) { return experiments.Theorem1(cfg) }},
		{"T2.1", func() (*tablefmt.Table, error) { return experiments.Theorem2(cfg) }},
		{"T2.2", func() (*tablefmt.Table, error) { return experiments.Theorem2Eps(cfg) }},
		{"L5", func() (*tablefmt.Table, error) { return experiments.Lemma5(cfg) }},
		{"L3", func() (*tablefmt.Table, error) { return experiments.BinBallLemma3(cfg, trials), nil }},
		{"L4", func() (*tablefmt.Table, error) { return experiments.BinBallLemma4(cfg, trials), nil }},
		{"EQ1", func() (*tablefmt.Table, error) { return experiments.ZoneAudit(cfg) }},
		{"L2", func() (*tablefmt.Table, error) { return experiments.GoodFunctions(cfg, 100000) }},
		{"K64", func() (*tablefmt.Table, error) { return experiments.KnuthBaseline(cfg) }},
		{"JP", func() (*tablefmt.Table, error) { return experiments.JensenPagh(cfg) }},
		{"ABL", func() (*tablefmt.Table, error) { return experiments.Ablations(cfg) }},
		{"MISS", func() (*tablefmt.Table, error) { return experiments.Unsuccessful(cfg) }},
	}
	for _, d := range drivers {
		t, err := d.run()
		if err != nil {
			return fmt.Errorf("%s: %w", d.id, err)
		}
		fmt.Fprintf(w, "[%s]\n", d.id)
		t.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

// Command benchdiff gates CI on benchmark regressions: it parses two
// `go test -bench` outputs (the PR head and the merge base), pairs
// benchmarks by name, and compares per-benchmark median ns/op and
// allocs/op. The geometric mean of the new/old ratios is the verdict —
// one geomean per metric: above the threshold (default +10%) on either,
// the command writes its JSON report and exits nonzero, failing the
// job. benchstat renders the human-readable comparison in the same CI
// job; benchdiff exists because benchstat has no machine-checkable
// pass/fail threshold.
//
// Allocation ratios are smoothed as (new+1)/(old+1): zero-allocation
// benchmarks pair cleanly (0 vs 0 → ratio 1), and a benchmark sliding
// from 0 to 1 alloc/op registers as a 2x regression instead of a
// division by zero. allocs/op requires running the benchmarks with
// -benchmem; without it only ns/op is gated.
//
// Usage:
//
//	benchdiff -old main.txt -new pr.txt [-out BENCH.json] [-threshold 0.10]
//
// A custom ios/op metric (b.ReportMetric — model I/Os per operation, the
// paper's currency) is carried into the report per benchmark when both
// sides print it. It is reported, never gated: the counts are exact and
// deterministic, so a change in them is a statement about the algorithm
// for a reviewer to read, not noise for a threshold to catch.
//
// Benchmarks present in only one file are reported but excluded from
// the geomeans, so adding or removing benchmarks never trips the gate.
//
// A second mode diffs two committed end-to-end records (scripts/bench.sh
// writes one BENCH_pr<N>.json per perf PR):
//
//	benchdiff -e2e [-spec BENCHMARK.json] BENCH_prA.json BENCH_prB.json
//
// prints workload × end-to-end metric with the relative change and
// marks anything that worsened by more than the bound BENCHMARK.json
// fixes for that metric (or a workload whose failed share grew); it
// exits nonzero when something is marked.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		oldPath   = flag.String("old", "", "baseline `go test -bench` output (required)")
		newPath   = flag.String("new", "", "candidate `go test -bench` output (required)")
		outPath   = flag.String("out", "", "write the JSON report here (default: stdout only)")
		threshold = flag.Float64("threshold", 0.10, "fail when geomean ns/op or allocs/op grows by more than this fraction")
		e2e       = flag.Bool("e2e", false, "diff two BENCH_pr<N>.json end-to-end records given as arguments (old, then new)")
		specPath  = flag.String("spec", "BENCHMARK.json", "with -e2e: the benchmark declaration holding each metric's bound")
	)
	flag.Parse()
	if *e2e {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		flagged, err := runE2E(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if flagged {
			log.Fatal("an end-to-end metric is past its bound")
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	oldRuns, err := parseBench(*oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRuns, err := parseBench(*newPath)
	if err != nil {
		log.Fatal(err)
	}

	rep := compare(oldRuns, newRuns, *threshold)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(js))
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(js, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Regression {
		log.Fatalf("geomean ratio exceeds 1+%.2f (ns/op %.4f, allocs/op %.4f)",
			*threshold, rep.Geomean, rep.AllocGeomean)
	}
}

// samples accumulates one benchmark's repetitions per metric.
type samples struct {
	ns     []float64
	allocs []float64
	ios    []float64
}

// Benchmark is one paired benchmark's comparison.
type Benchmark struct {
	Name      string  `json:"name"`
	OldNs     float64 `json:"old_ns_per_op"`
	NewNs     float64 `json:"new_ns_per_op"`
	Ratio     float64 `json:"ratio"` // new/old ns; > 1 is a slowdown
	OldAllocs float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocs float64 `json:"new_allocs_per_op,omitempty"`
	// AllocRatio is (new+1)/(old+1); > 1 means more allocation. Zero
	// when either side lacks -benchmem output.
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
	// OldIOs and NewIOs are the median ios/op, present (zero included)
	// when both sides report the metric. Informational only.
	OldIOs *float64 `json:"old_ios_per_op,omitempty"`
	NewIOs *float64 `json:"new_ios_per_op,omitempty"`
}

// Report is the JSON artifact benchdiff emits.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	OldOnly    []string    `json:"old_only,omitempty"`
	NewOnly    []string    `json:"new_only,omitempty"`
	Geomean    float64     `json:"geomean_ratio"`
	// AllocGeomean is the geometric mean of the smoothed allocs/op
	// ratios across benchmarks with -benchmem output on both sides
	// (1.0 when there are none).
	AllocGeomean float64 `json:"alloc_geomean_ratio"`
	Threshold    float64 `json:"threshold"`
	Regression   bool    `json:"regression"`
}

// parseBench extracts ns/op, allocs/op and ios/op samples per benchmark name
// from a `go test -bench` output file. Repetitions (-count) accumulate
// under one name; the trailing -GOMAXPROCS suffix stays part of the
// name since both files run on the same CI runner shape.
func parseBench(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]*samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: name iterations {value unit}... A recognized unit
		// with an unparseable value is a corrupt file and must fail
		// loudly — silently dropping the line would quietly exclude
		// the benchmark from the gate.
		var ns, allocs, ios float64
		var haveNs, haveAllocs, haveIOs bool
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "ns/op" && unit != "allocs/op" && unit != "ios/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s in %q: %w", path, unit, sc.Text(), err)
			}
			switch unit {
			case "ns/op":
				ns, haveNs = v, true
			case "allocs/op":
				allocs, haveAllocs = v, true
			case "ios/op":
				ios, haveIOs = v, true
			}
		}
		if !haveNs {
			continue
		}
		s := runs[fields[0]]
		if s == nil {
			s = &samples{}
			runs[fields[0]] = s
		}
		s.ns = append(s.ns, ns)
		if haveAllocs {
			s.allocs = append(s.allocs, allocs)
		}
		if haveIOs {
			s.ios = append(s.ios, ios)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return runs, nil
}

// median is the per-benchmark summary statistic: robust to the odd
// scheduler hiccup a mean would smear across the gate.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare pairs the two run sets and renders the verdict.
func compare(oldRuns, newRuns map[string]*samples, threshold float64) Report {
	rep := Report{Threshold: threshold}
	names := make([]string, 0, len(oldRuns))
	for name := range oldRuns {
		names = append(names, name)
	}
	sort.Strings(names)
	logSum, pairs := 0.0, 0
	allocLogSum, allocPairs := 0.0, 0
	for _, name := range names {
		nr, ok := newRuns[name]
		if !ok {
			rep.OldOnly = append(rep.OldOnly, name)
			continue
		}
		or := oldRuns[name]
		o, n := median(or.ns), median(nr.ns)
		ratio := math.Inf(1)
		if o > 0 {
			ratio = n / o
		}
		b := Benchmark{Name: name, OldNs: o, NewNs: n, Ratio: ratio}
		if o > 0 && n > 0 {
			logSum += math.Log(ratio)
			pairs++
		}
		if len(or.allocs) > 0 && len(nr.allocs) > 0 {
			b.OldAllocs = median(or.allocs)
			b.NewAllocs = median(nr.allocs)
			b.AllocRatio = (b.NewAllocs + 1) / (b.OldAllocs + 1)
			allocLogSum += math.Log(b.AllocRatio)
			allocPairs++
		}
		if len(or.ios) > 0 && len(nr.ios) > 0 {
			oi, ni := median(or.ios), median(nr.ios)
			b.OldIOs, b.NewIOs = &oi, &ni
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	for name := range newRuns {
		if _, ok := oldRuns[name]; !ok {
			rep.NewOnly = append(rep.NewOnly, name)
		}
	}
	sort.Strings(rep.NewOnly)
	rep.Geomean = 1.0
	if pairs > 0 {
		rep.Geomean = math.Exp(logSum / float64(pairs))
	}
	rep.AllocGeomean = 1.0
	if allocPairs > 0 {
		rep.AllocGeomean = math.Exp(allocLogSum / float64(allocPairs))
	}
	rep.Regression = rep.Geomean > 1+threshold || rep.AllocGeomean > 1+threshold
	return rep
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldOut = `goos: linux
BenchmarkInsert/buffered-8   	  100000	      1000 ns/op	       0.55 diskIOs/op	     512 B/op	       3 allocs/op
BenchmarkInsert/buffered-8   	  100000	      1200 ns/op	       0.55 diskIOs/op	     512 B/op	       3 allocs/op
BenchmarkInsert/buffered-8   	  100000	      1100 ns/op	       0.55 diskIOs/op	     512 B/op	       3 allocs/op
BenchmarkLookup/knuth-8      	  200000	       500 ns/op	       0 B/op	       0 allocs/op
BenchmarkRemoved-8           	  100000	       700 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	runs, err := parseBench(writeBench(t, "old.txt", oldOut))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs["BenchmarkInsert/buffered-8"].ns); got != 3 {
		t.Fatalf("reps = %d, want 3", got)
	}
	if m := median(runs["BenchmarkInsert/buffered-8"].ns); m != 1100 {
		t.Fatalf("median = %v, want 1100", m)
	}
	if m := median(runs["BenchmarkInsert/buffered-8"].allocs); m != 3 {
		t.Fatalf("allocs median = %v, want 3", m)
	}
	// A benchmark run without -benchmem still pairs on ns/op.
	if got := len(runs["BenchmarkRemoved-8"].allocs); got != 0 {
		t.Fatalf("allocs samples without -benchmem = %d, want 0", got)
	}
	if _, err := parseBench(writeBench(t, "empty.txt", "PASS\n")); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	oldRuns, err := parseBench(writeBench(t, "old.txt", oldOut))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		newOut  string
		geomean float64
		fail    bool
	}{
		{"improvement", `
BenchmarkInsert/buffered-8    100000    900 ns/op    0.5 diskIOs/op    512 B/op    3 allocs/op
BenchmarkLookup/knuth-8       200000    450 ns/op    0 B/op    0 allocs/op
`, 0.85, false},
		{"regression", `
BenchmarkInsert/buffered-8    100000    1500 ns/op    0.5 diskIOs/op    512 B/op    3 allocs/op
BenchmarkLookup/knuth-8       200000    700 ns/op    0 B/op    0 allocs/op
`, 1.38, true},
		{"within threshold", `
BenchmarkInsert/buffered-8    100000    1150 ns/op    0.5 diskIOs/op    512 B/op    3 allocs/op
BenchmarkLookup/knuth-8       200000    520 ns/op    0 B/op    0 allocs/op
`, 1.04, false},
		// ns/op flat but allocations exploded: the alloc geomean alone
		// must trip the gate ((4+1)/(3+1) and (2+1)/(0+1) → geomean ~1.94).
		{"alloc regression", `
BenchmarkInsert/buffered-8    100000    1000 ns/op    0.5 diskIOs/op    900 B/op    4 allocs/op
BenchmarkLookup/knuth-8       200000    500 ns/op    64 B/op    2 allocs/op
`, 1.0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newRuns, err := parseBench(writeBench(t, "new.txt", tc.newOut))
			if err != nil {
				t.Fatal(err)
			}
			rep := compare(oldRuns, newRuns, 0.10)
			if rep.Regression != tc.fail {
				t.Fatalf("regression = %v, want %v (geomean %.3f)", rep.Regression, tc.fail, rep.Geomean)
			}
			if rep.Geomean < tc.geomean-0.07 || rep.Geomean > tc.geomean+0.07 {
				t.Fatalf("geomean = %.3f, want about %.2f", rep.Geomean, tc.geomean)
			}
			// BenchmarkRemoved exists only in the baseline: reported,
			// never counted toward the gate.
			if len(rep.OldOnly) != 1 || rep.OldOnly[0] != "BenchmarkRemoved-8" {
				t.Fatalf("old_only = %v", rep.OldOnly)
			}
			if len(rep.Benchmarks) != 2 {
				t.Fatalf("paired = %d, want 2", len(rep.Benchmarks))
			}
		})
	}
}

// TestIOsColumnReportedNotGated: a custom ios/op metric is carried into
// the report (a measured zero included) for benchmarks that print it on
// both sides, left out for the others, and never moves the verdict —
// here it triples while ns/op and allocs/op hold still.
func TestIOsColumnReportedNotGated(t *testing.T) {
	const base = `
BenchmarkSteadyStateDelete/buffered-8   	  200000	       900 ns/op	         1.637 ios/op	     520 B/op	       1 allocs/op
BenchmarkSteadyStateDelete/buffered-8   	  200000	       910 ns/op	         1.641 ios/op	     520 B/op	       1 allocs/op
BenchmarkSteadyStateDelete/buffered-8   	  200000	       920 ns/op	         1.639 ios/op	     520 B/op	       1 allocs/op
BenchmarkSteadyStateCAS/h0-8            	  200000	       100 ns/op	         0 ios/op	       0 B/op	       0 allocs/op
BenchmarkSteadyStateLookup/knuth-8      	  200000	        60 ns/op	       0 B/op	       0 allocs/op
BenchmarkNewlyInstrumented-8            	  200000	        60 ns/op	       0 B/op	       0 allocs/op
`
	const head = `
BenchmarkSteadyStateDelete/buffered-8   	  200000	       910 ns/op	         5.438 ios/op	     520 B/op	       1 allocs/op
BenchmarkSteadyStateCAS/h0-8            	  200000	       100 ns/op	         0 ios/op	       0 B/op	       0 allocs/op
BenchmarkSteadyStateLookup/knuth-8      	  200000	        60 ns/op	       0 B/op	       0 allocs/op
BenchmarkNewlyInstrumented-8            	  200000	        60 ns/op	         1.000 ios/op	       0 B/op	       0 allocs/op
`
	oldRuns, err := parseBench(writeBench(t, "old.txt", base))
	if err != nil {
		t.Fatal(err)
	}
	newRuns, err := parseBench(writeBench(t, "new.txt", head))
	if err != nil {
		t.Fatal(err)
	}
	rep := compare(oldRuns, newRuns, 0.10)
	if rep.Regression {
		t.Fatalf("ios/op tripped the gate: %+v", rep)
	}
	want := map[string][2]float64{
		"BenchmarkSteadyStateDelete/buffered-8": {1.639, 5.438}, // median of three
		"BenchmarkSteadyStateCAS/h0-8":          {0, 0},
	}
	for _, b := range rep.Benchmarks {
		w, reported := want[b.Name]
		if !reported {
			if b.OldIOs != nil || b.NewIOs != nil {
				t.Errorf("%s: ios/op reported without samples on both sides", b.Name)
			}
			continue
		}
		if b.OldIOs == nil || b.NewIOs == nil || *b.OldIOs != w[0] || *b.NewIOs != w[1] {
			t.Errorf("%s: ios/op = %v -> %v, want %v -> %v", b.Name, b.OldIOs, b.NewIOs, w[0], w[1])
		}
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("paired = %d, want 4", len(rep.Benchmarks))
	}
	if _, err := parseBench(writeBench(t, "bad.txt", "BenchmarkX-8 100 5 ns/op x.y ios/op\n")); err == nil {
		t.Fatal("unparseable ios/op accepted")
	}
}

// TestE2EDiff runs -e2e over two fixture records: a throughput drop past
// its bound and a model-I/O rise past its (tight) bound are marked, a
// CPU rise inside its bound and every improvement are not, a grown
// failed share is reported, and a workload missing from one record is
// skipped by name.
func TestE2EDiff(t *testing.T) {
	var out strings.Builder
	flagged, err := runE2E(&out, "testdata/spec.json", "testdata/BENCH_prA.json", "testdata/BENCH_prB.json")
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Fatal("a 20% throughput drop against a 15% bound was not flagged")
	}
	worse := map[string]bool{}
	change := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && (f[0] == "mem_mix" || f[0] == "durable_write") {
			worse[f[0]+"."+f[1]] = f[len(f)-1] == "WORSE"
			change[f[0]+"."+f[1]] = f[5]
		}
	}
	want := map[string]bool{
		"mem_mix.ops_per_s":              true,  // -20% on a higher-is-better metric
		"mem_mix.cpu_us_per_op":          false, // +10%: inside 15%
		"mem_mix.model_ios_per_op":       false,
		"durable_write.ops_per_s":        false, // +20%: better
		"durable_write.cpu_us_per_op":    false, // -16.7%: better
		"durable_write.model_ios_per_op": true,  // +2% against a 1% bound
	}
	for k, w := range want {
		got, ok := worse[k]
		if !ok || got != w {
			t.Errorf("%s: flagged = %v (row present %v), want %v\n%s", k, got, ok, w, out.String())
		}
	}
	if change["mem_mix.ops_per_s"] != "-20.0%" || change["durable_write.cpu_us_per_op"] != "-16.7%" {
		t.Errorf("relative changes misprinted: %v", change)
	}
	if !strings.Contains(out.String(), "skipped (not in both records): only_in_old") {
		t.Errorf("missing workload not named:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MORE FAILURES: durable_write: failed 2/2000 -> 3/2000") {
		t.Errorf("grown failed share not reported:\n%s", out.String())
	}

	// The same record on both sides flags nothing.
	out.Reset()
	if flagged, err := runE2E(&out, "testdata/spec.json", "testdata/BENCH_prA.json", "testdata/BENCH_prA.json"); err != nil || flagged {
		t.Fatalf("self-diff: flagged=%v err=%v", flagged, err)
	}
	if _, err := runE2E(&out, "testdata/spec.json", "testdata/BENCH_prA.json", "testdata/missing.json"); err == nil {
		t.Fatal("missing record accepted")
	}
}

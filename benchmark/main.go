// Command benchmark is the repository's benchmark: four workloads driven
// through the real serving stack (client -> wire -> server -> sharded
// engine), every reply checked against a client-side model, six
// end-to-end metrics per workload, and — with --trace 1 — a per-layer
// ledger measured from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"req_p50_us", "us"},
	{"cpu_us_per_op", "us"}, {"model_ios_per_op", "count"}, {"peak_rss_mb", "MB"},
}

// defaultSeconds is run_seconds of BENCHMARK.json: a bare run measures
// what the committed numbers were measured with.
const defaultSeconds = 20

type options struct {
	seed    uint64
	seconds int
	trace   bool
	dir     string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line a run prints.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var opt options
	workload := flag.String("workload", "", "workload to run (default: all, one process each)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the op streams")
	flag.IntVar(&opt.seconds, "seconds", defaultSeconds, "nominal length of the measured phase (two segments per second)")
	trace := flag.Int("trace", 0, "1: run with the layers wrapped from outside and print the per-layer ledger")
	flag.StringVar(&opt.dir, "dir", filepath.Join(".bench_build", "scratch"), "scratch directory (a per-run subdirectory is created and removed)")
	smoke := flag.Bool("smoke", false, "run every workload, both modes, at toy size")
	hostnoise := flag.Bool("hostnoise", false, "measure the host: spin-loop wall time against CPU time and steal")
	flag.Parse()
	opt.trace = *trace != 0
	if opt.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Sized for the 2-vCPU hosts the numbers are compared on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	ok := true
	switch {
	case *hostnoise:
		hostNoise()
	case *smoke:
		ok = runSmoke(opt)
	case *workload == "":
		ok = runAll(opt)
	default:
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		ok = runOne(sp, opt)
	}
	if !ok {
		os.Exit(1)
	}
}

// runSmoke runs every workload in both modes at toy size — 4,096 keys,
// two segments of 8 requests — so a test can prove that the benchmark
// still builds, runs and verifies against the engine as it is now.
func runSmoke(opt options) bool {
	ok := true
	opt.seconds = 1
	for _, sp := range workloads {
		for _, opt.trace = range []bool{false, true} {
			ok = runOne(sp.smoke(), opt) && ok
		}
	}
	return ok
}

// runOne runs one workload in this process and prints its metrics as
// text lines followed by one JSON line. The scratch directory is removed
// on success and kept, with its path printed, on failure.
func runOne(sp *spec, opt options) bool {
	dir := filepath.Join(opt.dir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	var res *result
	var err error
	names := endToEnd
	if opt.trace {
		names = layerMetrics
		res, err = runTrace(sp, dir, filepath.Join(opt.dir, "trace_"+sp.name+".json"), opt.seed, opt.seconds)
	} else {
		res, err = runEndToEnd(sp, dir, opt.seed, opt.seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v (scratch kept: %s)\n", sp.name, err, dir)
		return false
	}
	out := jsonResult{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	out.Correct = res.failed == 0 && len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", sp.name, p)
	}
	for _, nu := range names {
		v := res.metrics[nu[0]]
		out.Metrics[nu[0]] = jsonMetric{Value: v, Unit: nu[1]}
		fmt.Printf("%s/%s %.6g %s\n", sp.name, nu[0], v, nu[1])
	}
	fmt.Printf("%s/attempted %d count\n%s/failed %d count\n", sp.name, out.Attempted, sp.name, out.Failed)
	if out.Correct {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "%s: scratch kept: %s\n", sp.name, dir)
	}
	line, _ := json.Marshal(out) // a struct of numbers and strings cannot fail to encode
	fmt.Println(string(line))
	return out.Correct
}

// runAll runs every workload in a process of its own, so that peak RSS
// and rusage are per workload, and closes with one JSON document.
func runAll(opt options) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	ok := true
	all := map[string]jsonResult{}
	for _, sp := range workloads {
		trace := 0
		if opt.trace {
			trace = 1
		}
		cmd := exec.Command(self, "--workload", sp.name, "--seed", fmt.Sprint(opt.seed),
			"--seconds", fmt.Sprint(opt.seconds), "--trace", fmt.Sprint(trace), "--dir", opt.dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res jsonResult
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil {
			fmt.Fprintf(os.Stderr, "%s: run failed: %v %v\n", sp.name, err, jerr)
			ok = false
			continue
		}
		all[sp.name] = res
	}
	// Same op stream, same segments: replication must not change
	// what was attempted.
	if a, b := all["durable_write"], all["repl_semisync_write"]; a.Attempted != b.Attempted {
		fmt.Fprintf(os.Stderr, "FAILED: durable_write attempted %d operations, repl_semisync_write %d\n", a.Attempted, b.Attempted)
		ok = false
	}
	doc, _ := json.Marshal(struct {
		Seed      uint64                `json:"seed"`
		Correct   bool                  `json:"correct"`
		Workloads map[string]jsonResult `json:"workloads"`
	}{opt.seed, ok, all})
	fmt.Println(string(doc))
	return ok
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// stream returns the first n requests of worker w's stream as plain
// values.
func stream(sp *spec, seed uint64, w, n int) []request {
	g := newGenerator(sp, newModel(sp.baseKeys), seed, w)
	var out []request
	for seg := 0; len(out) < n; seg++ {
		g.beginSegment(seg)
		for i := 0; i < sp.reqsPerSeg && len(out) < n; i++ {
			r := newRequest()
			g.fill(r)
			out = append(out, *r)
		}
	}
	return out
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, full := range workloads {
		sp := full.smoke()
		a, b, c := stream(sp, 7, 0, 64), stream(sp, 7, 0, 64), stream(sp, 8, 0, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different streams", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same stream", sp.name)
		}
		if reflect.DeepEqual(a, stream(sp, 7, 1, 64)) {
			t.Errorf("%s: the two workers send the same stream", sp.name)
		}
	}
}

func TestWritersOwnDisjointKeys(t *testing.T) {
	for _, full := range workloads {
		sp := full.smoke()
		owner := map[uint64]int{}
		for w := 0; w < numWorkers; w++ {
			for _, r := range stream(sp, 3, w, 200) {
				if !r.kind.isWrite() {
					continue
				}
				for _, k := range r.keys {
					if o, seen := owner[k]; seen && o != w {
						t.Fatalf("%s: key %#x written by workers %d and %d", sp.name, k, o, w)
					}
					owner[k] = w
				}
			}
		}
	}
}

func TestMutationBatchesNameEachKeyOnce(t *testing.T) {
	for _, r := range stream(findSpec("mem_api_mix").smoke(), 5, 0, 400) {
		seen := map[uint64]bool{}
		for _, k := range r.keys {
			if r.kind.isWrite() && seen[k] {
				t.Fatalf("%v batch names key %#x twice", r.kind, k)
			}
			seen[k] = true
		}
	}
}

func TestKeysAreABijectionOfIndices(t *testing.T) {
	for _, i := range []uint64{0, 1, 12345, extraBase + 7, absentBase + 1<<39} {
		if got := indexOf(keyOf(i)); got != i {
			t.Errorf("indexOf(keyOf(%d)) = %d", i, got)
		}
	}
}

func TestCheckerFlagsWrongReplies(t *testing.T) {
	sp := findSpec("durable_lookup_cold").smoke()
	g := newGenerator(sp, newModel(sp.baseKeys), 1, 0)
	g.beginSegment(0)
	r := newRequest()
	g.fill(r)
	reply := func() {
		r.rep.vals = append([]uint64(nil), r.expVals...)
		r.rep.found = append([]bool(nil), r.expFound...)
	}
	present := 0
	for !r.expFound[present] {
		present++
	}
	reply()
	if n := g.check(r); n != 0 {
		t.Fatalf("correct reply: %d failures", n)
	}
	r.rep.vals[present]++
	if n := g.check(r); n != 1 {
		t.Errorf("wrong value: %d failures, want 1", n)
	}
	reply()
	r.rep.found[present] = false
	if n := g.check(r); n != 1 {
		t.Errorf("wrong found flag: %d failures, want 1", n)
	}
	reply()
	r.rep.vals = r.rep.vals[:len(r.rep.vals)-1]
	if n := g.check(r); n != r.ops {
		t.Errorf("short reply: %d failures, want %d", n, r.ops)
	}

	// A delete or swap that misses is a failure.
	r.kind, r.rep.found = kDelete, make([]bool, r.ops)
	if n := g.check(r); n != r.ops {
		t.Errorf("all-miss delete: %d failures, want %d", n, r.ops)
	}
}

func TestCheckScan(t *testing.T) {
	sp := findSpec("mem_api_mix").smoke()
	m := newModel(sp.baseKeys)
	g := newGenerator(sp, m, 1, 0)
	own, other := keyOf(3), keyOf(uint64(sp.baseKeys-1))
	m.ver[3] = 40
	cases := []struct {
		name     string
		key, val uint64
		failed   int
	}{
		{"own key at the model's version", own, valueOf(own, 40), 0},
		{"own key a few writes behind", own, valueOf(own, 40-scanWindow), 0},
		{"own key at a version long gone", own, valueOf(own, 2), 1},
		{"own key ahead of the model", own, valueOf(own, 41), 1},
		{"the other worker's key, any version", other, valueOf(other, 9), 0},
		{"a value that is not this key's", other, valueOf(own, 0), 1},
		{"a key nobody stored", keyOf(extraBase), valueOf(keyOf(extraBase), 0), 1},
	}
	for _, c := range cases {
		if got := g.checkScan([]uint64{c.key}, []uint64{c.val}); got != c.failed {
			t.Errorf("%s: %d failures, want %d", c.name, got, c.failed)
		}
	}
}

func TestVerifySampleMatchesTheStream(t *testing.T) {
	// Replay a write workload on a map and compare the sample's
	// expectations with it.
	sp := findSpec("durable_write").smoke()
	m := newModel(sp.baseKeys)
	store := map[uint64]uint64{}
	for i := uint64(0); i < uint64(sp.baseKeys); i++ {
		store[keyOf(i)] = valueOf(keyOf(i), 0)
	}
	ins := uint64(sp.insertsPerSeg()) * numWorkers
	for i := insertStart(sp, -1, 0); i < insertStart(sp, -1, 0)+ins; i++ {
		store[keyOf(i)] = valueOf(keyOf(i), 0)
	}
	const segs = 3
	gens := []*generator{newGenerator(sp, m, 9, 0), newGenerator(sp, m, 9, 1)}
	for seg := 0; seg < segs; seg++ {
		for _, g := range gens {
			g.beginSegment(seg)
			for i := 0; i < sp.reqsPerSeg; i++ {
				r := newRequest()
				g.fill(r)
				for j, k := range r.keys {
					switch r.kind {
					case kInsert, kUpsert:
						store[k] = r.vals[j]
					case kDelete:
						if _, ok := store[k]; !ok {
							t.Fatalf("segment %d deletes a key that is not stored", seg)
						}
						delete(store, k)
					}
				}
			}
		}
		if len(store) != sp.baseKeys+int(ins) {
			t.Fatalf("Len after segment %d is %d, want %d", seg, len(store), sp.baseKeys+int(ins))
		}
	}
	keys, vals, found := verifySample(sp, m, 9, 4096, segs)
	present := 0
	for i, k := range keys {
		v, ok := store[k]
		if ok != found[i] || (ok && v != vals[i]) {
			t.Fatalf("sample %d: expects (%#x, %v), the replay has (%#x, %v)", i, vals[i], found[i], v, ok)
		}
		if ok {
			present++
		}
	}
	if present == 0 || present == len(keys) {
		t.Errorf("sample has %d present keys of %d: want a mix", present, len(keys))
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  2206792 0 897999 1969739 259213 0 160354 174808 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n")
	if s, err := parseSteal(stat); err != nil || s != 174808 {
		t.Errorf("parseSteal = %d, %v; want 174808", s, err)
	}
	// Kernels before 2.6.11 have no steal column.
	if _, err := parseSteal([]byte("cpu  1 2 3 4 5 6 7\n")); err != errNoSteal {
		t.Errorf("short cpu line: err = %v, want errNoSteal", err)
	}
	if _, err := parseSteal([]byte("intr 5\n")); err != errNoSteal {
		t.Errorf("no cpu line: err = %v, want errNoSteal", err)
	}
}

func TestNoStealColumnMeansQuiet(t *testing.T) {
	now := time.Now()
	iv := since(clock{wall: now, steal: -1}, clock{wall: now.Add(time.Second), steal: -1})
	if iv.steal != 0 {
		t.Errorf("steal share without a steal column = %v, want 0", iv.steal)
	}
}

func TestQuietSegmentSelection(t *testing.T) {
	const segments, quietMin = 40, 20
	vec := func(quiet func(i int) bool) []float64 {
		out := make([]float64, segments)
		for i := range out {
			if !quiet(i) {
				out[i] = 0.05 + float64(i)/1000
			}
		}
		return out
	}
	if idx, noisy := selectQuiet(vec(func(int) bool { return true }), quietMin); len(idx) != segments || noisy {
		t.Errorf("all quiet: selected %d, noisy %v", len(idx), noisy)
	}
	// Exactly enough quiet segments, scattered: those and no others.
	idx, noisy := selectQuiet(vec(func(i int) bool { return i%2 == 1 }), quietMin)
	if len(idx) != quietMin || noisy || idx[0] != 1 || idx[quietMin-1] != segments-1 {
		t.Errorf("every other segment quiet: selected %v, noisy %v", idx, noisy)
	}
	// One short: falls back to the least stolen, which are the quiet
	// ones and the least stolen of the others, and says so.
	idx, noisy = selectQuiet(vec(func(i int) bool { return i >= segments-(quietMin-1) }), quietMin)
	if len(idx) != quietMin || !noisy || idx[0] != 0 || idx[1] != segments-(quietMin-1) {
		t.Errorf("%d quiet: selected %v, noisy %v", quietMin-1, idx, noisy)
	}
	// None quiet: the least stolen half, in run order.
	idx, noisy = selectQuiet(vec(func(int) bool { return false }), quietMin)
	if len(idx) != quietMin || !noisy || idx[0] != 0 || idx[quietMin-1] != quietMin-1 {
		t.Errorf("none quiet: selected %v, noisy %v", idx, noisy)
	}
}

func TestHandoffProbe(t *testing.T) {
	p, err := newHandoffProbe()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		us, err := p.readings(1)
		if err != nil || us <= 0 {
			t.Fatalf("reading %d = %v, %v", i, us, err)
		}
	}
	if err := p.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// A host twice as slow as the reference host: durations halve.
	if got := toRefHost(300, 2*handoffRefUS); got != 150 {
		t.Errorf("toRefHost(300, 2 x reference) = %v, want 150", got)
	}
}

// TestContractListsTheMetrics keeps BENCHMARK.json and the program in
// step: the same workloads, end-to-end and per-layer metrics, with the
// same units, and the run length the flag defaults to.
func TestContractListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var contract struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the --seconds default is %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: contract %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		have []metric
		want [][2]string
	}{{"end_to_end", contract.EndToEnd, endToEnd}, {"per_layer", contract.PerLayer, layerMetrics}} {
		if len(c.have) != len(c.want) {
			t.Errorf("%s: %d metrics in the contract, %d in the program", c.what, len(c.have), len(c.want))
			continue
		}
		for i, m := range c.have {
			if m.Name != c.want[i][0] || m.Unit != c.want[i][1] {
				t.Errorf("%s %d: contract %v, program %v", c.what, i, m, c.want[i])
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100) causes a [10,30), b [20,50) (overlapping a) and
	// c [90,120) (running past its cause); a causes d [12,18).
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Cause: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Cause: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Cause: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Cause: 2, Name: "d", Start: 12, End: 18},
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20 - 6, "b": 30, "c": 30, "d": 6}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTracedEnginePassesThroughWhenOff(t *testing.T) {
	raw, err := openNode(&spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	tr := &tracer{}
	e := &tracedEngine{Engine: raw.raw, t: tr, prefix: "extbuf."}
	if _, err := e.UpsertBatchShip([]uint64{1, 2}, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	id := tr.beginSegment()
	vals, found := make([]uint64, 2), make([]bool, 2)
	if err := e.LookupBatchInto([]uint64{1, 3}, vals, found); err != nil {
		t.Fatal(err)
	}
	tr.endSegment(id, 2)
	if vals[0] != 10 || !found[0] || found[1] {
		t.Errorf("lookup through the decorator = %v %v", vals, found)
	}
	if got := tr.byName("extbuf.upsert"); len(got) != 0 {
		t.Errorf("recorded %d spans while off", len(got))
	}
	got := tr.byName("extbuf.lookup")
	if len(got) != 1 || got[0].Ops != 2 || got[0].Cause != id {
		t.Errorf("lookup spans = %+v", got)
	}
}

// TestSmoke runs all four workloads in both modes at toy size, end to
// end: set-up, served segments, verification, bypass assertions, layer
// probes and trace files.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	if !runSmoke(options{seed: 1, dir: dir}) {
		t.Fatal("smoke pass failed")
	}
	for _, sp := range workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace_"+sp.name+".json")); err != nil {
			t.Error(err)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "*-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

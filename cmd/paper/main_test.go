package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// TestGoldenQuarterScale holds every table at -scale 0.25 byte for byte:
// the experiments are seeded and deterministic, so any drift is a change
// of behavior in a structure, a counter or a workload.
func TestGoldenQuarterScale(t *testing.T) {
	want, err := os.ReadFile("../../testdata/paper_scale025.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, cfg, 2000); err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("-scale 0.25 output differs from testdata/paper_scale025.golden at line %d:\ngot:  %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestRejectsBadFlags: a scale that is not a finite positive number or
// a trial count below one is an error, not a silent n = 1,000 run or a
// NaN column.
func TestRejectsBadFlags(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := config(scale, 42); err == nil {
			t.Errorf("-scale %v accepted", scale)
		}
	}
	cfg, err := config(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{0, -1} {
		var out bytes.Buffer
		if err := run(&out, cfg, trials); err == nil || out.Len() > 0 {
			t.Errorf("-trials %d: err %v after %d bytes of output", trials, err, out.Len())
		}
	}
}

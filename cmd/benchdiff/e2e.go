package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"extbuf/internal/tablefmt"
)

// The -e2e mode diffs two of the end-to-end records scripts/bench.sh
// commits (BENCH_pr<N>.json: one benchmark/run.sh result per workload)
// and judges every workload × end-to-end metric against the bound
// BENCHMARK.json fixes for it. Each record is one run per workload — a
// flag here says "look", a claimed gain still needs alternating pairs.

// e2eRecord is a BENCH_pr<N>.json file.
type e2eRecord struct {
	PR        int               `json:"pr"`
	Commit    string            `json:"commit"`
	Seed      int               `json:"seed"`
	Workloads map[string]e2eRun `json:"workloads"`
}

// e2eRun is the JSON line benchmark/run.sh prints last.
type e2eRun struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// e2eSpec is what -e2e reads of BENCHMARK.json: the workload order and
// each end-to-end metric's direction and regression bound.
type e2eSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"` // "lower" or "higher"
		Bound  float64 `json:"bound"`  // relative worsening that counts as a regression
	} `json:"end_to_end"`
}

// e2eRow is one workload × metric comparison.
type e2eRow struct {
	Workload, Metric, Unit string
	Old, New               float64
	Change                 float64 // (new-old)/old
	Bound                  float64
	Worse                  bool // moved the wrong way by more than Bound
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareE2E pairs the two records in the spec's workload and metric
// order. A workload or metric missing from either record is skipped and
// named in skipped; a workload whose failed share grew is named in
// failing.
func compareE2E(spec e2eSpec, oldRec, newRec e2eRecord) (rows []e2eRow, skipped, failing []string) {
	for _, w := range spec.Workloads {
		o, okOld := oldRec.Workloads[w.Name]
		n, okNew := newRec.Workloads[w.Name]
		if !okOld || !okNew {
			skipped = append(skipped, w.Name)
			continue
		}
		if float64(n.Failed)*float64(o.Attempted) > float64(o.Failed)*float64(n.Attempted) {
			failing = append(failing, fmt.Sprintf("%s: failed %d/%d -> %d/%d", w.Name, o.Failed, o.Attempted, n.Failed, n.Attempted))
		}
		for _, m := range spec.EndToEnd {
			ov, okOld := o.Metrics[m.Name]
			nv, okNew := n.Metrics[m.Name]
			if !okOld || !okNew || ov.Value == 0 {
				skipped = append(skipped, w.Name+"."+m.Name)
				continue
			}
			r := e2eRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Old: ov.Value, New: nv.Value, Bound: m.Bound}
			r.Change = (nv.Value - ov.Value) / ov.Value
			if m.Better == "higher" {
				r.Worse = -r.Change > m.Bound
			} else {
				r.Worse = r.Change > m.Bound
			}
			rows = append(rows, r)
		}
	}
	return rows, skipped, failing
}

// runE2E is `benchdiff -e2e OLD.json NEW.json`: print the table, report
// whether anything is past its bound.
func runE2E(w io.Writer, specPath, oldPath, newPath string) (flagged bool, err error) {
	var spec e2eSpec
	var oldRec, newRec e2eRecord
	if err := errors.Join(readJSON(specPath, &spec), readJSON(oldPath, &oldRec), readJSON(newPath, &newRec)); err != nil {
		return false, err
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		return false, fmt.Errorf("%s: declares no workloads or end-to-end metrics", specPath)
	}
	rows, skipped, failing := compareE2E(spec, oldRec, newRec)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload metric", oldPath, newPath)
	}
	t := tablefmt.New(fmt.Sprintf("end to end: PR %d (%s, seed %d) -> PR %d (%s, seed %d)",
		oldRec.PR, oldRec.Commit, oldRec.Seed, newRec.PR, newRec.Commit, newRec.Seed),
		"workload", "metric", "unit", "old", "new", "change", "bound", "")
	t.AddNote("one run per workload on each side: a flag is a reason to run pairs, not a verdict")
	for _, r := range rows {
		mark := ""
		if r.Worse {
			mark, flagged = "WORSE", true
		}
		t.AddRow(r.Workload, r.Metric, r.Unit, r.Old, r.New,
			fmt.Sprintf("%+.1f%%", 100*r.Change), fmt.Sprintf("%.0f%%", 100*r.Bound), mark)
	}
	t.Render(w)
	for _, s := range skipped {
		fmt.Fprintf(w, "skipped (not in both records): %s\n", s)
	}
	for _, f := range failing {
		fmt.Fprintf(w, "MORE FAILURES: %s\n", f)
		flagged = true
	}
	return flagged, nil
}

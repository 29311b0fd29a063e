package experiments

import (
	"testing"

	"extbuf/internal/core"
	"extbuf/internal/iomodel"
	"extbuf/internal/workload"
	"extbuf/internal/zones"
)

// observed is what the model counts for one structure over a run: the
// figures the paper's tables are made of.
type observed struct {
	insert, lookup  iomodel.Counters
	zones           zones.Report
	tqModel         float64
	memPeak         int64
	diskBlocks      int
	merges, growths int // core only: its restructuring counters
	readPaid, debt  int
}

// observeAll builds every structure buildAll builds on models made by
// newModel, inserts cfg.N keys, looks up cfg.QuerySamples of them and
// audits the zones.
func observeAll(t *testing.T, cfg Config, newModel func(words int64) *iomodel.Model) map[string]observed {
	t.Helper()
	var models []*iomodel.Model
	subs, err := cfg.buildAll(1300, func(words int64) *iomodel.Model {
		m := newModel(words)
		models = append(models, m)
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := cfg.rng(1301)
	keys := workload.Keys(rng, cfg.N)
	qs := workload.SuccessfulQueries(rng, keys, cfg.N, cfg.QuerySamples)
	out := make(map[string]observed)
	for i, s := range subs {
		model := models[i]
		var o observed
		c0 := model.Counters()
		for _, k := range keys {
			if err := s.insert(k); err != nil {
				t.Fatalf("%s: insert %d: %v", s.name, k, err)
			}
		}
		o.insert = model.Counters().Sub(c0)
		lookup := s.sub.(interface {
			Lookup(key uint64) (uint64, bool, int)
		}).Lookup
		c1 := model.Counters()
		for _, q := range qs {
			if _, ok, _ := lookup(q); !ok {
				t.Fatalf("%s: lost key %d", s.name, q)
			}
		}
		o.lookup = model.Counters().Sub(c1)
		o.zones = zones.Audit(s.sub, keys)
		o.tqModel = o.zones.ModelQueryCost()
		o.memPeak, o.diskBlocks = model.Mem.Peak(), model.Disk.NumBlocks()
		if ct, ok := s.sub.(*core.Table); ok {
			o.merges, o.growths = ct.Merges(), ct.Growths()
			o.readPaid, o.debt = ct.ReadPaidMerges(), ct.ReadDebt()
		}
		out[s.name] = o
	}
	return out
}

// TestModelCountersIgnoreStore is the identity behind every table: a
// structure counts the same model I/Os, zones, memory and blocks on the
// free in-memory store and on a file store whose pool is far smaller
// than the table, so every block is evicted to the file and read back.
// The block store prices an I/O; it never decides how many there are.
func TestModelCountersIgnoreStore(t *testing.T) {
	cfg := Config{B: 64, MWords: 1024, N: 20000, QuerySamples: 4000, Seed: 42}
	mem := observeAll(t, cfg, cfg.memModel)

	var files []*iomodel.FileStore
	file := observeAll(t, cfg, func(words int64) *iomodel.Model {
		fs, err := iomodel.NewTempFileStore(cfg.B, 16)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs)
		t.Cleanup(func() { fs.Close() })
		return iomodel.NewModelOn(fs, words)
	})

	if len(mem) != 8 || len(file) != len(mem) {
		t.Fatalf("observed %d structures on mem and %d on file, want 8 each", len(mem), len(file))
	}
	for name, m := range mem {
		if f := file[name]; f != m {
			t.Errorf("%s: model figures differ by store\nmem:  %+v\nfile: %+v", name, m, f)
		}
	}
	for i, fs := range files {
		if ev := fs.Stats().Evictions; ev == 0 {
			t.Errorf("file store %d evicted nothing: both runs stayed in memory", i)
		}
	}
}

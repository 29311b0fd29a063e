package extbuf

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Engine conformance: a single table (OpenEngine) and a Sharded engine
// of one and of four shards must be the same engine. One scripted op
// stream — every keyed kind, shipping and not, with duplicate keys,
// absent keys, keys that expire mid-script and writes that fail — runs
// against each, once through the synchronous methods and once through
// StartBatch and Wait, and each run must agree with a model of the kind
// table in guard.apply's comment on: every result, the first error, what
// the ship sink saw (per key in apply order; in exactly the model's order
// on one shard), the LSN returned, the final contents, and — between the
// single table and the one-shard engine — the model I/O counters.

type shipRec struct {
	op       uint8
	key, val uint64
}

// confSink is a recording ship sink that assigns consecutive LSNs like
// the ship log does; with fail set it refuses every append.
type confSink struct {
	mu   sync.Mutex
	recs []shipRec // recs[i] has LSN i+1
	fail error
}

func (s *confSink) ship(op uint8, keys, vals []uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return 0, s.fail
	}
	first := uint64(len(s.recs)) + 1
	for i, k := range keys {
		var v uint64
		if vals != nil {
			v = vals[i]
		}
		s.recs = append(s.recs, shipRec{op, k, v})
	}
	return first, nil
}

var errFlaky = errors.New("flaky table: write refused")

// flakyTable refuses value writes of the keys in bad, before they touch
// the table — the engine-visible shape of a structure write that fails.
type flakyTable struct {
	innerTable
	bad map[uint64]bool
}

func (f *flakyTable) Insert(key, val uint64) error {
	if f.bad[key] {
		return errFlaky
	}
	return f.innerTable.Insert(key, val)
}

func (f *flakyTable) Upsert(key, val uint64) error {
	if f.bad[key] {
		return errFlaky
	}
	return f.innerTable.Upsert(key, val)
}

type confStep struct {
	name              string
	kind              BatchOp
	ship              bool
	keys, vals, vals2 []uint64
	advance           uint64 // clock milliseconds to let pass before the step
}

type confResult struct {
	outV  []uint64
	outOK []bool
	lsn   uint64
	err   error
}

// resultPad is how much longer than keys the result slices are; the
// engines must leave the tail alone.
const resultPad = 2

// runStep issues st through the exported Engine method for its kind or,
// started set, through StartBatch and Wait.
func runStep(e Engine, st confStep, started bool) confResult {
	n := len(st.keys)
	r := confResult{outV: make([]uint64, n+resultPad), outOK: make([]bool, n+resultPad)}
	for i := n; i < n+resultPad; i++ {
		r.outV[i], r.outOK[i] = ^uint64(0), true
	}
	switch {
	case started:
		vals := st.vals
		if st.kind == BatchLookup {
			vals = r.outV
		}
		var c *BatchCall
		if c, r.err = e.StartBatch(st.kind, st.ship, st.keys, vals, st.vals2, r.outOK); r.err == nil {
			r.lsn, r.err = c.Wait()
		}
	case st.kind == BatchInsert && st.ship:
		r.lsn, r.err = e.InsertBatchShip(st.keys, st.vals)
	case st.kind == BatchInsert:
		r.err = e.InsertBatch(st.keys, st.vals)
	case st.kind == BatchUpsert && st.ship:
		r.lsn, r.err = e.UpsertBatchShip(st.keys, st.vals)
	case st.kind == BatchUpsert:
		r.err = e.UpsertBatch(st.keys, st.vals)
	case st.kind == BatchLookup:
		r.err = e.LookupBatchInto(st.keys, r.outV, r.outOK)
	case st.kind == BatchDelete && st.ship:
		r.lsn, r.err = e.DeleteBatchShipInto(st.keys, r.outOK)
	case st.kind == BatchDelete:
		r.err = e.DeleteBatchInto(st.keys, r.outOK)
	case st.kind == BatchExpire:
		r.lsn, r.err = ExpireForTest(e, st.ship, st.keys, st.vals, r.outOK)
	case st.kind == BatchUpsertTTL:
		r.lsn, r.err = e.UpsertTTLBatchShip(st.keys, st.vals, st.vals2)
	case st.kind == BatchCompareSwap:
		r.lsn, r.err = e.CompareSwapBatchShip(st.keys, st.vals, st.vals2, r.outOK)
	}
	return r
}

// confModel is the reference: a map plus deadlines, stepped by the rules
// of the kind table.
type confModel struct {
	now uint64
	m   map[uint64]confEntry
	bad map[uint64]bool
}

type confEntry struct {
	val, deadline uint64
	ttl           bool
}

func (m *confModel) live(k uint64) (uint64, bool) {
	e, ok := m.m[k]
	if !ok || (e.ttl && e.deadline <= m.now) {
		return 0, false
	}
	return e.val, true
}

// step applies st and returns the expected results, whether an error is
// expected, and the records a one-shard engine ships, in order.
func (m *confModel) step(st confStep) (outV []uint64, outOK []bool, failed bool, ships []shipRec) {
	m.now += st.advance
	outV, outOK = make([]uint64, len(st.keys)), make([]bool, len(st.keys))
	var expires []shipRec // upsert-ttl: shipped after all the upserts
	for i, k := range st.keys {
		switch st.kind {
		case BatchInsert, BatchUpsert, BatchUpsertTTL:
			if m.bad[k] {
				failed = true
				continue
			}
			e := confEntry{val: st.vals[i]}
			op := ShipUpsert
			if st.kind == BatchInsert {
				op = ShipInsert
			}
			ships = append(ships, shipRec{op, k, st.vals[i]})
			if st.kind == BatchUpsertTTL {
				e.ttl, e.deadline = true, st.vals2[i]
				expires = append(expires, shipRec{ShipExpire, k, st.vals2[i]})
			}
			m.m[k] = e
		case BatchLookup:
			outV[i], outOK[i] = m.live(k)
		case BatchDelete:
			_, outOK[i] = m.live(k)
			delete(m.m, k)
			ships = append(ships, shipRec{ShipDelete, k, 0})
		case BatchExpire:
			if _, outOK[i] = m.live(k); outOK[i] {
				e := m.m[k]
				e.ttl, e.deadline = true, st.vals[i]
				m.m[k] = e
				ships = append(ships, shipRec{ShipExpire, k, st.vals[i]})
			}
		case BatchCompareSwap:
			if v, ok := m.live(k); ok && v == st.vals[i] {
				outOK[i] = true
				m.m[k] = confEntry{val: st.vals2[i]}
				ships = append(ships, shipRec{ShipUpsert, k, st.vals2[i]})
			}
		}
	}
	ships = append(ships, expires...)
	if !st.ship {
		ships = nil
	}
	return outV, outOK, failed, ships
}

func byKey(recs []shipRec) map[uint64][]shipRec {
	out := make(map[uint64][]shipRec)
	for _, r := range recs {
		out[r.key] = append(out[r.key], r)
	}
	return out
}

// confScript builds the op stream. Key groups: a and b are inserted and
// live throughout, c arrives by upsert, d by upsert-with-TTL; absent
// never exists; bad[0] is in the table but refuses further writes,
// bad[1] never gets in.
func confScript() (steps []confStep, bad map[uint64]bool) {
	group := func(base, n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = uint64(base+i)*0x9e3779b97f4a7c15 | 1
		}
		return ks
	}
	vals := func(ks []uint64, salt uint64) []uint64 {
		vs := make([]uint64, len(ks))
		for i, k := range ks {
			vs[i] = k>>7 ^ salt
		}
		return vs
	}
	fill := func(n int, v uint64) []uint64 { return slices.Repeat([]uint64{v}, n) }
	cat := func(parts ...[]uint64) []uint64 { return slices.Concat(parts...) }
	a, b, c, d, absent := group(0, 48), group(100, 48), group(200, 32), group(300, 32), group(400, 16)
	badKeys := group(500, 2)
	const t0 = 1_000_000 // the clock's start (see openConf)

	// Upserts with a key repeated inside one batch: per key, the later
	// position must apply — and ship — last.
	dupK := cat(c[:8], c[:8], a[:4])
	dupV := cat(vals(c[:8], 3), vals(c[:8], 4), vals(a[:4], 5))
	// A write-refusing key in the middle: the positions after it still
	// apply, and the error still comes back.
	mid := func(ks []uint64, k uint64) []uint64 { return cat(ks[:len(ks)/2], []uint64{k}, ks[len(ks)/2:]) }

	steps = []confStep{
		{name: "insert", kind: BatchInsert, keys: cat(a, badKeys[:1]), vals: vals(cat(a, badKeys[:1]), 1)},
		{name: "insert ship", kind: BatchInsert, ship: true, keys: b, vals: vals(b, 1)},
		{name: "lookup", kind: BatchLookup, keys: cat(a, absent, b)},
		{name: "lookup ship ships nothing", kind: BatchLookup, ship: true, keys: cat(b[:4], absent[:2])},
		{name: "upsert", kind: BatchUpsert, keys: cat(a[:16], c), vals: vals(cat(a[:16], c), 2)},
		{name: "upsert ship, repeated keys", kind: BatchUpsert, ship: true, keys: dupK, vals: dupV},
		{name: "upsert, refused write mid-batch", kind: BatchUpsert, keys: mid(a[16:24], badKeys[0]), vals: fill(9, 77)},
		{name: "upsert ship, refused write mid-batch", kind: BatchUpsert, ship: true, keys: mid(b[16:24], badKeys[0]), vals: fill(9, 78)},
		{name: "insert ship, refused write mid-batch", kind: BatchInsert, ship: true, keys: mid(group(600, 8), badKeys[1]), vals: fill(9, 79)},
		{name: "lookup after refusals", kind: BatchLookup, keys: cat(a[16:24], b[16:24], group(600, 8), badKeys)},
		{name: "delete", kind: BatchDelete, keys: cat(a[40:], absent[:4])},
		{name: "delete ship, misses included", kind: BatchDelete, ship: true, keys: cat(b[40:], absent[4:8], a[40:44])},
		{name: "expire", kind: BatchExpire, keys: cat(a[:8], absent[:2]), vals: fill(10, t0+100)},
		{name: "expire ship, only the found", kind: BatchExpire, ship: true, keys: cat(b[:8], absent[:2], a[40:42]), vals: fill(12, t0+100)},
		{name: "upsert-ttl", kind: BatchUpsertTTL, ship: true, keys: cat(d, a[8:12], d[:2]), vals: vals(cat(d, a[8:12], d[:2]), 6),
			vals2: cat(fill(32, t0+100), fill(4, t0+500), fill(2, t0+500))},
		{name: "upsert-ttl, refused write mid-batch", kind: BatchUpsertTTL, ship: true, keys: mid(b[24:28], badKeys[0]), vals: fill(5, 80), vals2: fill(5, t0+500)},
		{name: "cas: match, mismatch, absent", kind: BatchCompareSwap, ship: true, keys: cat(c[8:12], c[12:16], absent[:2]),
			vals: cat(vals(c[8:12], 2), fill(4, 12345), fill(2, 0)), vals2: fill(10, 4242)},
		{name: "upsert clears a deadline", kind: BatchUpsert, ship: true, keys: a[:2], vals: fill(2, 9)},
		{name: "cas clears a deadline", kind: BatchCompareSwap, ship: true, keys: b[:2], vals: vals(b[:2], 1), vals2: fill(2, 10)},
		// t0+100 passes: a[2:8], b[2:8] and d[2:] are dead but unswept.
		{name: "lookup past the deadline", kind: BatchLookup, advance: 150, keys: cat(a[:12], b[:8], d)},
		{name: "cas on expired keys", kind: BatchCompareSwap, ship: true, keys: cat(a[2:4], d[:4]), vals: cat(vals(a[2:4], 2), vals(d[:2], 6), vals(d[2:4], 6)), vals2: fill(6, 11)},
		{name: "expire on expired keys", kind: BatchExpire, ship: true, keys: cat(b[2:4], d[4:6], a[8:10]), vals: fill(6, t0+900)},
		{name: "delete ship on expired keys", kind: BatchDelete, ship: true, keys: cat(a[4:6], d[6:8], b[8:10])},
		{name: "upsert revives an expired key", kind: BatchUpsert, keys: b[4:6], vals: fill(2, 12)},
		{name: "lookup at the end", kind: BatchLookup, keys: cat(a, b, c, d, absent, badKeys)},
	}
	return steps, map[uint64]bool{badKeys[0]: true, badKeys[1]: true}
}

type confEngine struct {
	name   string
	shards int // 0: a single table
	eng    Engine
	clock  *atomic.Uint64
	sink   *confSink
}

// openConf opens the engine under test on the mem backend with an
// injected clock and a recording sink. arm wraps every guard's table in
// a flakyTable refusing writes of bad; the script's first step, which
// puts bad[0] into the table, runs before it.
func openConf(t *testing.T, structure string, shards int) (confEngine, func(bad map[uint64]bool)) {
	t.Helper()
	ce := confEngine{shards: shards, clock: new(atomic.Uint64), sink: new(confSink)}
	ce.clock.Store(1_000_000)
	cfg := Config{BlockSize: 64, MemoryWords: 1024, Beta: 8, ExpectedItems: 4096, Seed: 7, nowMillis: ce.clock.Load}
	var guards []*guard
	if shards == 0 {
		ce.name = "OpenEngine"
		cfg.ExpectedItems++ // what NewSharded(…, 1) hands its one shard
		g, err := open(structure, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ce.eng, guards = g, []*guard{g}
	} else {
		ce.name = fmt.Sprintf("NewSharded(%d)", shards)
		s, err := NewSharded(structure, cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		ce.eng, guards = s, s.shards
	}
	ce.eng.SetShip(ce.sink.ship)
	arm := func(bad map[uint64]bool) {
		// Between two synchronous calls no worker is touching its guard.
		for _, g := range guards {
			g.t = &flakyTable{g.t, bad}
		}
	}
	return ce, arm
}

func scanAll(t *testing.T, e Engine) map[uint64]uint64 {
	t.Helper()
	got := make(map[uint64]uint64)
	for cursor := uint64(0); cursor != ScanDone; {
		keys, vals, next, err := e.Scan(cursor, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if _, dup := got[k]; dup {
				t.Fatalf("scan returned key %#x twice", k)
			}
			got[k] = vals[i]
		}
		cursor = next
	}
	return got
}

func TestEngineConformance(t *testing.T) {
	for _, structure := range []string{"buffered", "knuth"} {
		t.Run(structure, func(t *testing.T) {
			steps, bad := confScript()
			var single Stats // OpenEngine's model I/Os, for the one-shard comparison
			lengthErrs := map[string]string{}
			for _, run := range []struct {
				shards  int
				started bool
			}{{0, false}, {0, true}, {1, false}, {1, true}, {4, false}, {4, true}} {
				shards := run.shards
				ce, arm := openConf(t, structure, shards)
				if run.started {
					ce.name += " started"
				}
				model := &confModel{now: ce.clock.Load(), m: map[uint64]confEntry{}}
				for i, st := range steps {
					if i == 1 {
						arm(bad)
						model.bad = bad
					}
					ce.clock.Add(st.advance)
					before := len(ce.sink.recs)
					got := runStep(ce.eng, st, run.started)
					wantV, wantOK, wantFail, wantShips := model.step(st)
					at := fmt.Sprintf("%s, step %d (%s)", ce.name, i, st.name)

					if wantFail != (got.err != nil) || (wantFail && !errors.Is(got.err, errFlaky)) {
						t.Fatalf("%s: err %v, want a refused write: %v", at, got.err, wantFail)
					}
					n := len(st.keys)
					if !slices.Equal(got.outV[:n], wantV) || !slices.Equal(got.outOK[:n], wantOK) {
						t.Fatalf("%s: results\n got  %v %v\n want %v %v", at, got.outV[:n], got.outOK[:n], wantV, wantOK)
					}
					for j := n; j < n+resultPad; j++ {
						if got.outV[j] != ^uint64(0) || !got.outOK[j] {
							t.Fatalf("%s: result slot %d beyond len(keys) was written", at, j)
						}
					}

					ships := ce.sink.recs[before:]
					if shards <= 1 && !slices.Equal(ships, wantShips) {
						t.Fatalf("%s: shipped\n got  %v\n want %v", at, ships, wantShips)
					}
					if !maps.EqualFunc(byKey(ships), byKey(wantShips), slices.Equal[[]shipRec]) {
						t.Fatalf("%s: shipped, per key in apply order\n got  %v\n want %v", at, byKey(ships), byKey(wantShips))
					}
					wantLSN := uint64(0)
					if len(wantShips) > 0 {
						wantLSN = uint64(len(ce.sink.recs)) // the step's last record covers it
					}
					if got.lsn != wantLSN {
						t.Fatalf("%s: LSN %d, want %d", at, got.lsn, wantLSN)
					}
					if st.kind == BatchUpsertTTL && wantLSN > 0 && ce.sink.recs[wantLSN-1].op != ShipExpire {
						t.Fatalf("%s: the covering LSN %d is not an expire record", at, wantLSN)
					}
				}

				wantFinal := make(map[uint64]uint64)
				for k := range model.m {
					if v, ok := model.live(k); ok {
						wantFinal[k] = v
					}
				}
				if got := scanAll(t, ce.eng); !maps.Equal(got, wantFinal) {
					t.Fatalf("%s: final Scan has %d entries, the model %d", ce.name, len(got), len(wantFinal))
				}
				switch {
				case shards == 0 && !run.started:
					single = ce.eng.Stats()
				case shards <= 1:
					if st := ce.eng.Stats(); st != single {
						t.Fatalf("%s paid %+v model I/Os, the single table %+v", ce.name, st, single)
					}
				}

				checkStartedOutstanding(t, ce)
				checkLengthContract(t, ce, lengthErrs)
				checkFailingSink(t, ce, steps[1].keys[:4])
				checkClosed(t, ce, steps[1].keys[:4])
			}
		})
	}
}

// checkLengthContract: a short operand or result column is
// ErrBatchLength with the same detail text from every engine (texts are
// collected in seen across engines), and nothing is applied.
func checkLengthContract(t *testing.T, ce confEngine, seen map[string]string) {
	t.Helper()
	k, two, one := []uint64{2, 4}, make([]uint64, 2), make([]uint64, 1) // even: not in the script
	ok2, ok1 := make([]bool, 2), make([]bool, 1)
	cases := map[string]error{
		"insert short vals":       ce.eng.InsertBatch(k, one),
		"upsert ship long vals":   second(ce.eng.UpsertBatchShip(k, make([]uint64, 3))),
		"lookup short vals":       ce.eng.LookupBatchInto(k, one, ok2),
		"lookup short found":      ce.eng.LookupBatchInto(k, two, ok1),
		"delete short found":      ce.eng.DeleteBatchInto(k, ok1),
		"upsert-ttl short vals":   second(ce.eng.UpsertTTLBatchShip(k, one, two)),
		"upsert-ttl short ttls":   second(ce.eng.UpsertTTLBatchShip(k, two, one)),
		"cas short news":          second(ce.eng.CompareSwapBatchShip(k, two, one, ok2)),
		"cas short swapped":       second(ce.eng.CompareSwapBatchShip(k, two, two, ok1)),
		"start insert short vals": startErr(ce.eng.StartBatch(BatchInsert, true, k, one, nil, nil)),
		"start lookup short vals": startErr(ce.eng.StartBatch(BatchLookup, false, k, one, nil, ok2)),
		"start delete short":      startErr(ce.eng.StartBatch(BatchDelete, true, k, nil, nil, ok1)),
		"start expire short":      startErr(ce.eng.StartBatch(BatchExpire, false, k, two, nil, ok1)),
		"start expire short vals": startErr(ce.eng.StartBatch(BatchExpire, true, k, one, nil, ok2)),
		"start upsert-ttl short":  startErr(ce.eng.StartBatch(BatchUpsertTTL, true, k, two, one, nil)),
		"start cas short news":    startErr(ce.eng.StartBatch(BatchCompareSwap, true, k, two, one, ok2)),
		"start cas short swapped": startErr(ce.eng.StartBatch(BatchCompareSwap, true, k, two, two, ok1)),
	}
	for name, err := range cases {
		if !errors.Is(err, ErrBatchLength) {
			t.Fatalf("%s: %s: %v, want ErrBatchLength", ce.name, name, err)
		}
		if first, ok := seen[name]; ok && first != err.Error() {
			t.Fatalf("%s: %s: detail %q, another engine said %q", ce.name, name, err, first)
		}
		seen[name] = err.Error()
	}
	// A kind past the keyed ones is refused by name, the same way.
	err := startErr(ce.eng.StartBatch(BatchCompareSwap+1, true, k, two, two, ok2))
	if err == nil || errors.Is(err, ErrBatchLength) {
		t.Fatalf("%s: StartBatch of an unkeyed kind: %v, want an unknown op", ce.name, err)
	}
	if first, ok := seen["start unknown op"]; ok && first != err.Error() {
		t.Fatalf("%s: unknown op: %q, another engine said %q", ce.name, err, first)
	}
	seen["start unknown op"] = err.Error()
	if _, found, _ := ce.eng.LookupBatch(k); found[0] || found[1] {
		t.Fatalf("%s: a batch refused for its lengths applied", ce.name)
	}
	// StartBatch takes all the columns whatever the op (the server lends
	// its ring slot's): a write neither needs found nor touches it.
	c, err := ce.eng.StartBatch(BatchUpsert, true, k, two, one, ok1)
	if err == nil {
		_, err = c.Wait()
	}
	if err != nil || ok1[0] {
		t.Fatalf("%s: StartBatch upsert with a short found slice: err %v, found %v", ce.name, err, ok1)
	}
	if err := ce.eng.DeleteBatchInto(k, ok2); err != nil {
		t.Fatal(err)
	}
}

func second(_ uint64, err error) error { return err }

func startErr(_ *BatchCall, err error) error { return err }

// checkStartedOutstanding starts a chain of batches on fresh keys —
// insert, lookup, upsert, compare-swap, upsert-ttl, expire, delete,
// lookup, each depending on the ones before — all before the first Wait,
// then waits oldest first. Each must see the ones started before it
// applied, and each shipping start must return the LSN covering its
// records.
func checkStartedOutstanding(t *testing.T, ce confEngine) {
	t.Helper()
	keys := []uint64{6, 8, 10, 12} // even: not in the script
	far := slices.Repeat([]uint64{^uint64(0)}, len(keys))
	farTTL := ^uint64(0) - 1
	got1, got2 := make([]uint64, 4), make([]uint64, 4)
	hit1, hit2, swapped, expired, deleted := make([]bool, 4), make([]bool, 4), make([]bool, 4), make([]bool, 4), make([]bool, 2)
	steps := []struct {
		op                BatchOp
		ship              bool
		keys, vals, vals2 []uint64
		found             []bool
	}{
		{BatchInsert, true, keys, []uint64{1, 2, 3, 4}, nil, nil},
		{BatchLookup, false, keys, got1, nil, hit1},
		{BatchUpsert, false, keys, []uint64{5, 6, 7, 8}, nil, nil},
		{BatchCompareSwap, true, keys, []uint64{5, 6, 0, 0}, []uint64{15, 16, 17, 18}, swapped},
		{BatchUpsertTTL, true, keys[2:], []uint64{27, 28}, []uint64{farTTL, farTTL}, nil},
		{BatchExpire, true, keys, far, nil, expired},
		{BatchDelete, true, keys[:2], nil, nil, deleted},
		{BatchLookup, true, keys, got2, nil, hit2},
	}
	before := len(ce.sink.recs)
	calls := make([]*BatchCall, len(steps))
	for i, st := range steps {
		var err error
		if calls[i], err = ce.eng.StartBatch(st.op, st.ship, st.keys, st.vals, st.vals2, st.found); err != nil {
			t.Fatalf("%s: start %d: %v", ce.name, i, err)
		}
	}
	lsns := make([]uint64, len(steps))
	for i, c := range calls {
		var err error
		if lsns[i], err = c.Wait(); err != nil {
			t.Fatalf("%s: wait %d: %v", ce.name, i, err)
		}
	}
	if fmt.Sprint(got1, hit1, swapped, expired, deleted, got2, hit2) != "[1 2 3 4] [true true true true] "+
		"[true true false false] [true true true true] [true true] [0 0 27 28] [false false true true]" {
		t.Fatalf("%s: outstanding starts saw %v %v, swapped %v, expired %v, deleted %v, then %v %v",
			ce.name, got1, hit1, swapped, expired, deleted, got2, hit2)
	}
	// Per key: insert, the swap's or the upsert-ttl's records, expire,
	// then (for the deleted half) delete.
	recs := ce.sink.recs[before:]
	var want []shipRec
	for i, k := range keys {
		want = append(want, shipRec{ShipInsert, k, uint64(i + 1)})
		if i < 2 {
			want = append(want, shipRec{ShipUpsert, k, uint64(15 + i)}, shipRec{ShipExpire, k, far[i]}, shipRec{ShipDelete, k, 0})
		} else {
			want = append(want, shipRec{ShipUpsert, k, uint64(25 + i)}, shipRec{ShipExpire, k, farTTL}, shipRec{ShipExpire, k, far[i]})
		}
	}
	if !maps.EqualFunc(byKey(recs), byKey(want), slices.Equal[[]shipRec]) {
		t.Fatalf("%s: outstanding starts shipped %v, want per key %v", ce.name, recs, want)
	}
	// A shipping call's LSN is its last record's, wherever the shards
	// interleaved it with the calls around it.
	lastOf := func(match func(shipRec) bool) uint64 {
		var lsn uint64
		for i, r := range recs {
			if match(r) {
				lsn = uint64(before + i + 1)
			}
		}
		return lsn
	}
	wantLSNs := []uint64{
		lastOf(func(r shipRec) bool { return r.op == ShipInsert }), 0, 0,
		lastOf(func(r shipRec) bool { return r.op == ShipUpsert && r.val < 20 }),
		lastOf(func(r shipRec) bool { return r.op == ShipExpire && r.val == farTTL }),
		lastOf(func(r shipRec) bool { return r.op == ShipExpire && r.val == far[0] }),
		lastOf(func(r shipRec) bool { return r.op == ShipDelete }), 0,
	}
	if !slices.Equal(lsns, wantLSNs) {
		t.Fatalf("%s: outstanding starts returned LSNs %v, want %v", ce.name, lsns, wantLSNs)
	}
	if err := ce.eng.DeleteBatchInto(keys, make([]bool, len(keys))); err != nil {
		t.Fatal(err)
	}
}

// checkFailingSink: when the sink refuses the append the ship forms
// return its error and LSN 0 — after applying.
func checkFailingSink(t *testing.T, ce confEngine, keys []uint64) {
	t.Helper()
	errSink := errors.New("ship log: append refused")
	ce.sink.fail = errSink
	defer func() { ce.sink.fail = nil }()
	vals, found := []uint64{21, 22, 23, 24}, make([]bool, len(keys))
	far := slices.Repeat([]uint64{^uint64(0)}, len(keys))
	// In this order every call has something to ship: the upsert makes
	// the keys live, the swap expects the values it wrote.
	for _, c := range []struct {
		name string
		call func() (uint64, error)
	}{
		{"upsert", func() (uint64, error) { return ce.eng.UpsertBatchShip(keys, vals) }},
		{"upsert-ttl", func() (uint64, error) { return ce.eng.UpsertTTLBatchShip(keys, vals, far) }},
		{"expire", func() (uint64, error) { return ExpireForTest(ce.eng, true, keys, far, found) }},
		{"cas", func() (uint64, error) { return ce.eng.CompareSwapBatchShip(keys, vals, vals, found) }},
		{"delete", func() (uint64, error) { return ce.eng.DeleteBatchShipInto(keys[:1], found) }},
	} {
		if lsn, err := c.call(); lsn != 0 || !errors.Is(err, errSink) {
			t.Fatalf("%s: %s with a failing sink: LSN %d, err %v", ce.name, c.name, lsn, err)
		}
	}
	if got, ok, err := ce.eng.LookupBatch(keys[1:]); err != nil || !slices.Equal(got, vals[1:]) || slices.Contains(ok, false) {
		t.Fatalf("%s: upserts whose shipping failed did not apply: %v %v %v", ce.name, got, ok, err)
	}
}

// checkClosed closes the engine: every operation then reports ErrClosed
// (zero results from the methods without an error) and writes nothing
// into the caller's result slices.
func checkClosed(t *testing.T, ce confEngine, keys []uint64) {
	t.Helper()
	if err := ce.eng.Close(); err != nil {
		t.Fatal(err)
	}
	e, n := ce.eng, len(keys)
	vals, outV, outOK := make([]uint64, n), make([]uint64, n), make([]bool, n)
	for name, err := range map[string]error{
		"InsertBatch":          e.InsertBatch(keys, vals),
		"UpsertBatch":          e.UpsertBatch(keys, vals),
		"LookupBatchInto":      e.LookupBatchInto(keys, outV, outOK),
		"DeleteBatchInto":      e.DeleteBatchInto(keys, outOK),
		"InsertBatchShip":      second(e.InsertBatchShip(keys, vals)),
		"UpsertBatchShip":      second(e.UpsertBatchShip(keys, vals)),
		"DeleteBatchShipInto":  second(e.DeleteBatchShipInto(keys, outOK)),
		"UpsertTTLBatchShip":   second(e.UpsertTTLBatchShip(keys, vals, vals)),
		"CompareSwapBatchShip": second(e.CompareSwapBatchShip(keys, vals, vals, outOK)),
		"StartBatch":           startErr(e.StartBatch(BatchLookup, false, keys, outV, nil, outOK)),
		"Insert":               e.Insert(keys[0], 1),
		"Upsert":               e.Upsert(keys[0], 1),
		"Sync":                 e.Sync(),
		"Flush":                e.Flush(),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: %s on a closed engine: %v, want ErrClosed", ce.name, name, err)
		}
	}
	if _, _, next, err := e.Scan(0, 8); !errors.Is(err, ErrClosed) || next != ScanDone {
		t.Fatalf("%s: Scan on a closed engine: cursor %d, err %v", ce.name, next, err)
	}
	if swept, lsn, err := e.SweepExpired(8); !errors.Is(err, ErrClosed) || swept != 0 || lsn != 0 {
		t.Fatalf("%s: SweepExpired on a closed engine: %d %d %v", ce.name, swept, lsn, err)
	}
	if v, ok := e.Lookup(keys[0]); v != 0 || ok || e.Delete(keys[0]) || e.Len() != 0 {
		t.Fatalf("%s: single-key reads on a closed engine must report absence", ce.name)
	}
	if slices.Contains(outOK, true) || slices.ContainsFunc(outV, func(v uint64) bool { return v != 0 }) {
		t.Fatalf("%s: a closed engine wrote result slots: %v %v", ce.name, outV, outOK)
	}
}

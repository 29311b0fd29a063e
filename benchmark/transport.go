package main

import (
	"context"
	"slices"

	"extbuf"
	"extbuf/client"
)

// transport carries a worker's requests to the engine: through the real
// client, wire protocol and server (served), or straight into the
// engine's batch calls (direct, the layer probe).
type transport interface {
	// send issues r; the reply is collected by wait.
	send(r *request)
	// wait blocks for r's reply and decodes it into r.rep.
	wait(r *request) error
	// checkpoint closes a write segment.
	checkpoint() error
}

// served sends requests through one pipelined client connection.
type served struct {
	cl  *client.Client
	ctx context.Context
}

func (s *served) send(r *request) {
	switch r.kind {
	case kLookup:
		r.pending, r.err = s.cl.GoLookup(r.keys)
	case kUpsert:
		r.pending, r.err = s.cl.GoUpsert(r.keys, r.vals)
	case kInsert:
		r.pending, r.err = s.cl.GoInsert(r.keys, r.vals)
	case kDelete:
		r.pending, r.err = s.cl.GoDelete(r.keys)
	case kCAS:
		r.pending, r.err = s.cl.GoCompareSwap(r.keys, r.vals, r.aux)
	case kUpsertTTL:
		r.pending, r.err = s.cl.GoUpsertTTL(r.keys, r.vals, r.aux)
	case kScan:
		r.pending, r.err = s.cl.GoScan(r.cursor, batchOps)
	}
}

func (s *served) wait(r *request) (err error) {
	if r.err != nil {
		return r.err
	}
	rep, p := &r.rep, r.pending
	switch r.kind {
	case kLookup:
		rep.vals, rep.found, err = p.Lookup(s.ctx)
	case kUpsert, kInsert:
		err = p.Wait(s.ctx)
	case kDelete:
		rep.found, err = p.Deleted(s.ctx)
	case kCAS:
		rep.found, _, err = p.FoundsT(s.ctx)
	case kUpsertTTL:
		_, err = p.Token(s.ctx)
	case kScan:
		rep.keys, rep.vals, rep.next, err = p.ScanPage(s.ctx)
	}
	return err
}

func (s *served) checkpoint() error { return s.cl.Flush(s.ctx) }

// direct executes requests on the engine itself: no client, no wire, no
// server, no commit barrier. Like the server's applier it hands the
// engine runs of same-kind requests as one batch call (up to the
// inflight requests a full pipeline holds), so its rate is the ceiling
// the serving stack works under.
type direct struct {
	eng   extbuf.Engine
	batch []*request // sent, not yet executed: one kind, oldest first

	keys, vals, aux, outV []uint64
	outF                  []bool
}

func (d *direct) send(r *request) {
	if n := len(d.batch); n > 0 && (d.batch[0].kind != r.kind || r.kind == kScan || n == inflight) {
		d.flush()
	}
	r.queued = true
	d.batch = append(d.batch, r)
}

func (d *direct) wait(r *request) error {
	if r.queued {
		d.flush()
	}
	return r.err
}

// flush executes the queued run with one engine call and hands each
// request its share of the results.
func (d *direct) flush() {
	kind := d.batch[0].kind
	d.keys, d.vals, d.aux = d.keys[:0], d.vals[:0], d.aux[:0]
	for _, r := range d.batch {
		d.keys, d.vals, d.aux = append(d.keys, r.keys...), append(d.vals, r.vals...), append(d.aux, r.aux...)
	}
	n := len(d.keys)
	d.outV, d.outF = slices.Grow(d.outV[:0], n)[:n], slices.Grow(d.outF[:0], n)[:n]
	var err error
	switch kind {
	case kLookup:
		err = d.eng.LookupBatchInto(d.keys, d.outV, d.outF)
	case kUpsert:
		_, err = d.eng.UpsertBatchShip(d.keys, d.vals)
	case kInsert:
		_, err = d.eng.InsertBatchShip(d.keys, d.vals)
	case kDelete:
		_, err = d.eng.DeleteBatchShipInto(d.keys, d.outF)
	case kCAS:
		_, err = d.eng.CompareSwapBatchShip(d.keys, d.vals, d.aux, d.outF)
	case kUpsertTTL:
		_, err = d.eng.UpsertTTLBatchShip(d.keys, d.vals, d.aux)
	case kScan: // never batched
		rep := &d.batch[0].rep
		rep.keys, rep.vals, rep.next, err = d.eng.Scan(d.batch[0].cursor, batchOps)
	}
	off := 0
	for _, r := range d.batch {
		r.queued, r.err = false, err
		if kind != kScan {
			end := off + len(r.keys)
			r.rep.vals = append(r.rep.vals[:0], d.outV[off:end]...)
			r.rep.found = append(r.rep.found[:0], d.outF[off:end]...)
			off = end
		}
	}
	d.batch = d.batch[:0]
}

func (d *direct) checkpoint() error { return d.eng.Flush() }

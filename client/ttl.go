package client

import (
	"context"
	"fmt"
	"time"

	"extbuf"
	"extbuf/internal/wire"
)

// ScanDone is the cursor a scan returns when the table is exhausted.
const ScanDone = extbuf.ScanDone

// DeadlineAt converts a wall-clock time to the protocol's deadline
// representation (unix milliseconds).
func DeadlineAt(t time.Time) uint64 { return uint64(t.UnixMilli()) }

// DeadlineAfter returns the deadline d from now.
func DeadlineAfter(d time.Duration) uint64 { return DeadlineAt(time.Now().Add(d)) }

// GoExpire pipelines an EXPIRE batch: deadlines[i] (unix ms) becomes
// keys[i]'s expiry deadline if the key is present and unexpired.
// Collect results with Pending.FoundsT.
func (c *Client) GoExpire(keys, deadlines []uint64) (*Pending, error) {
	return c.goKV(wire.OpExpire, keys, deadlines)
}

// GoUpsertTTL pipelines an UPSERTTTL batch: each pair is stored and its
// deadline set atomically. Collect the token with Pending.Token.
func (c *Client) GoUpsertTTL(keys, vals, deadlines []uint64) (*Pending, error) {
	return c.goTriples(wire.OpUpsertTTL, keys, vals, deadlines)
}

// GoCompareSwap pipelines a CAS batch: keys[i] is set to news[i] iff
// its current unexpired value is olds[i]. Collect results with
// Pending.FoundsT (flags report which keys swapped).
func (c *Client) GoCompareSwap(keys, olds, news []uint64) (*Pending, error) {
	return c.goTriples(wire.OpCAS, keys, olds, news)
}

// GoScan pipelines a SCAN page request. cursor 0 starts a scan; max 0
// lets the server pick its page size. Collect the page with
// Pending.ScanPage.
func (c *Client) GoScan(cursor uint64, max int) (*Pending, error) {
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(wire.OpScan, func(dst []byte) []byte {
		return wire.AppendScan(dst, cursor, uint32(max))
	})
}

func (c *Client) goTriples(op wire.Op, a, b, d []uint64) (*Pending, error) {
	if len(a) != len(b) || len(a) != len(d) {
		return nil, fmt.Errorf("client: triple batch lengths %d/%d/%d", len(a), len(b), len(d))
	}
	if len(a) > wire.MaxTripleBatch {
		return nil, ErrTooLarge
	}
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(op, func(dst []byte) []byte { return wire.AppendTriples(dst, a, b, d) })
}

// Expire sets each key's expiry deadline (unix ms; see DeadlineAfter),
// reporting per key whether it was present to expire, plus the batch's
// read token. Expired keys vanish from reads immediately at their
// deadline; the server's sweeper reclaims their space. A later plain
// write to a key clears its deadline.
func (c *Client) Expire(ctx context.Context, keys, deadlines []uint64) ([]bool, ReadToken, error) {
	p, err := c.GoExpire(keys, deadlines)
	if err != nil {
		return nil, ReadToken{}, err
	}
	return p.FoundsT(ctx)
}

// UpsertTTL stores (keys[i], vals[i]) with deadlines[i] as its expiry
// deadline, atomically per key, returning the batch's read token.
func (c *Client) UpsertTTL(ctx context.Context, keys, vals, deadlines []uint64) (ReadToken, error) {
	p, err := c.GoUpsertTTL(keys, vals, deadlines)
	if err != nil {
		return ReadToken{}, err
	}
	return p.Token(ctx)
}

// CompareSwap atomically replaces keys[i] with news[i] iff its current
// unexpired value equals olds[i], reporting per key whether it swapped,
// plus the batch's read token. A swap clears the key's TTL, like any
// value write.
func (c *Client) CompareSwap(ctx context.Context, keys, olds, news []uint64) ([]bool, ReadToken, error) {
	p, err := c.GoCompareSwap(keys, olds, news)
	if err != nil {
		return nil, ReadToken{}, err
	}
	return p.FoundsT(ctx)
}

// Scan reads one page of entries in the server's bucket order. cursor 0
// starts a scan; pass the returned next cursor to continue, until it is
// ScanDone. The scan is weakly consistent: entries moved by a
// concurrent rehash may be seen twice or not at all, entries untouched
// during the scan exactly once. Expired entries are filtered.
func (c *Client) Scan(ctx context.Context, cursor uint64, max int) (keys, vals []uint64, next uint64, err error) {
	p, err := c.GoScan(cursor, max)
	if err != nil {
		return nil, nil, 0, err
	}
	return p.ScanPage(ctx)
}

// FoundsT blocks for a FOUNDST-shaped response (GoDelete, GoExpire,
// GoCompareSwap) and decodes its per-key flags and covering token.
func (p *Pending) FoundsT(ctx context.Context) ([]bool, ReadToken, error) {
	if err := p.wait(ctx); err != nil {
		return nil, ReadToken{}, err
	}
	if p.op != wire.OpFoundsT {
		return nil, ReadToken{}, fmt.Errorf("client: unexpected %v response", p.op)
	}
	lsn, epoch, founds, err := wire.DecodeFoundsTInto(p.payload, nil)
	return founds, ReadToken{LSN: lsn, Epoch: epoch}, err
}

// ScanPage blocks for a SCAN response and decodes the page.
func (p *Pending) ScanPage(ctx context.Context) (keys, vals []uint64, next uint64, err error) {
	if err := p.wait(ctx); err != nil {
		return nil, nil, 0, err
	}
	if p.op != wire.OpScanR {
		return nil, nil, 0, fmt.Errorf("client: unexpected %v response", p.op)
	}
	next, keys, vals, err = wire.DecodeScanRInto(p.payload, nil, nil)
	return keys, vals, next, err
}

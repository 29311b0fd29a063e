package wal

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Committer is the group-commit engine of the durability barrier: it
// runs the fsyncs of a commit — the write-ahead log, the block file,
// and (indirectly) the checkpoint — concurrently on a bounded worker
// pool instead of serially in the committing goroutine. One committer
// is shared by every shard of a sharded durable engine, so a Flush
// barrier across S shards overlaps up to 2S fsyncs: per shard the WAL
// and block-file fsyncs of step (1)+(2) of the checkpoint protocol
// proceed together, and across shards all of them batch into the same
// pool. The fsync count per barrier is unchanged (different files need
// their own fsync); the serial latency — previously three fsync round
// trips per shard, back to back — collapses toward one.
//
// Committer is safe for concurrent use.
type Committer struct {
	sem     chan struct{}
	batches atomic.Int64
	syncs   atomic.Int64
}

// NewCommitter returns a committer running at most parallel fsyncs at
// once (minimum 1).
func NewCommitter(parallel int) *Committer {
	if parallel < 1 {
		parallel = 1
	}
	return &Committer{sem: make(chan struct{}, parallel)}
}

// Commit runs the given sync functions concurrently, bounded by the
// committer's parallelism, and returns their errors joined in argument
// order — deterministic, so injected-fault tests see stable errors.
func (c *Committer) Commit(fns ...func() error) error {
	c.batches.Add(1)
	c.syncs.Add(int64(len(fns)))
	if len(fns) == 0 {
		return nil
	}
	run := func(fn func() error) error {
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
		return fn()
	}
	// The last function runs on the caller, which would otherwise only
	// wait: a two-file commit costs one goroutine, not two, and a single
	// function none (its error is returned bare, not joined).
	last := len(fns) - 1
	if last == 0 {
		return run(fns[0])
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns[:last] {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = run(fn)
		}(i, fn)
	}
	errs[last] = run(fns[last])
	wg.Wait()
	return errors.Join(errs...)
}

// Batches returns the number of Commit calls served.
func (c *Committer) Batches() int64 { return c.batches.Load() }

// Syncs returns the total number of sync functions run.
func (c *Committer) Syncs() int64 { return c.syncs.Load() }

package wal

import (
	"errors"
	"sync"
)

// SyncAll runs the fsyncs of one durability barrier together: a table's
// WAL and block file at a checkpoint, a primary's engine and ship log at
// a commit wave. Neither file's durability depends on the other's, so
// the barrier costs about one fsync instead of their sum. Every function
// but the last runs on a goroutine of its own and the last on the
// caller, which would otherwise only wait; the errors are joined in
// argument order, so injected-fault tests see stable errors.
func SyncAll(fns ...func() error) error {
	if len(fns) == 0 {
		return nil
	}
	last := len(fns) - 1
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	errs[last] = fns[last]()
	wg.Wait()
	return errors.Join(errs...)
}

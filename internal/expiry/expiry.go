// Package expiry implements the per-table TTL sidecar index: a map from
// key to expiry deadline (unix milliseconds) paired with a min-heap over
// deadlines so a background sweep can pop due keys in time order without
// scanning the table. The index is deliberately NOT the source of truth
// for durability — deadlines are logged as wal.OpExpire records and
// saved in the checkpoint superblock by the durable layer — it is the
// in-memory view both lazy read-filtering and the sweeper consult.
//
// Semantics (Redis-style): Insert/Upsert/Delete on a key clears its
// deadline (a plain write makes the key persistent again); Set installs
// or replaces one. A key is expired once its deadline is <= now; expired
// keys are invisible to reads immediately (lazy filtering) and physically
// deleted by the sweep, which issues real logged-and-shipped deletes so
// replicas converge by applying the primary's deletes rather than
// running clocks of their own.
//
// Not safe for concurrent use: callers (shard workers, or the engine
// guard under its external serialization contract) own the index.
package expiry

// entry is one heap element. The heap uses lazy deletion: an entry is
// live only while the map still holds the same deadline for its key, so
// Clear and re-Set just abandon the old entry to be skipped when popped —
// or dropped by trim, once abandoned entries outnumber live ones.
type entry struct {
	key      uint64
	deadline uint64
}

// Index tracks deadlines for one table (or one shard of one).
type Index struct {
	deadline map[uint64]uint64
	heap     []entry
}

// New returns an empty index.
func New() *Index {
	return &Index{deadline: make(map[uint64]uint64)}
}

// Len returns the number of keys with a live deadline.
func (x *Index) Len() int { return len(x.deadline) }

// Earliest returns a lower bound on every live deadline: the heap's top,
// or the largest uint64 when nothing is tracked. An abandoned entry on
// top only makes the bound earlier than it need be. While Earliest() is
// above the clock no key can be expired, and callers skip the per-key
// probe.
func (x *Index) Earliest() uint64 {
	if len(x.heap) == 0 {
		return ^uint64(0)
	}
	return x.heap[0].deadline
}

// Set installs or replaces key's deadline (unix ms).
func (x *Index) Set(key, deadline uint64) {
	x.deadline[key] = deadline
	x.push(entry{key, deadline})
	x.trim()
}

// Clear drops key's deadline, if any. The heap entry is abandoned.
func (x *Index) Clear(key uint64) {
	delete(x.deadline, key)
	x.trim()
}

// trim rebuilds the heap from the map once abandoned entries outnumber
// live ones, so far-deadline re-Sets and Clears — which PopDue never
// reaches — cannot grow it without bound. A rebuild costs O(Len), and the
// Len/2 or more Sets and Clears that made it due pay for it.
func (x *Index) trim() {
	if len(x.heap) > 2*len(x.deadline)+1 {
		x.compact()
	}
}

func (x *Index) compact() {
	x.heap = x.heap[:0]
	for k, d := range x.deadline {
		x.heap = append(x.heap, entry{k, d})
	}
	for i := len(x.heap)/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
}

// Deadline returns key's deadline and whether one is set.
func (x *Index) Deadline(key uint64) (uint64, bool) {
	d, ok := x.deadline[key]
	return d, ok
}

// Expired reports whether key has a deadline at or before now.
func (x *Index) Expired(key, now uint64) bool {
	d, ok := x.deadline[key]
	return ok && d <= now
}

// PopDue removes up to max due keys (deadline <= now) from the index in
// deadline order, appends them to dst, and returns it. Stale heap
// entries — keys cleared or re-set since they were pushed — are drained
// for free along the way.
func (x *Index) PopDue(now uint64, dst []uint64, max int) []uint64 {
	for len(x.heap) > 0 && max > 0 {
		top := x.heap[0]
		if top.deadline > now {
			break
		}
		x.pop()
		if d, ok := x.deadline[top.key]; ok && d == top.deadline {
			delete(x.deadline, top.key)
			dst = append(dst, top.key)
			max--
		}
	}
	return dst
}

// Range calls f for every (key, deadline) pair, in no particular order.
// Used by checkpoint save; f must not mutate the index.
func (x *Index) Range(f func(key, deadline uint64)) {
	for k, d := range x.deadline {
		f(k, d)
	}
}

func (x *Index) push(e entry) {
	x.heap = append(x.heap, e)
	i := len(x.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if x.heap[p].deadline <= x.heap[i].deadline {
			break
		}
		x.heap[p], x.heap[i] = x.heap[i], x.heap[p]
		i = p
	}
}

func (x *Index) pop() {
	n := len(x.heap) - 1
	x.heap[0] = x.heap[n]
	x.heap = x.heap[:n]
	x.siftDown(0)
}

func (x *Index) siftDown(i int) {
	n := len(x.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && x.heap[l].deadline < x.heap[small].deadline {
			small = l
		}
		if r < n && x.heap[r].deadline < x.heap[small].deadline {
			small = r
		}
		if small == i {
			break
		}
		x.heap[i], x.heap[small] = x.heap[small], x.heap[i]
		i = small
	}
}

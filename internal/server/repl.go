package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"extbuf"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// ReplConfig enables WAL-shipping replication on a server. A node with
// replication on keeps a ship log — a server-level append-only op log
// (wal.ShipLog) that every applied mutation is written to — and either
// sources it to subscribed followers (primary) or replays a primary's
// stream into its own engine and ship log (follower). See DESIGN.md,
// "Replication".
type ReplConfig struct {
	// ShipPath names the ship log file (required).
	ShipPath string
	// StatePath names the small state file persisting the replication
	// epoch across restarts (required).
	StatePath string
	// Follow is the primary's address. Empty starts the node writable
	// (a primary); non-empty starts it as a read-only follower of that
	// address — call Server.Follow to begin replaying.
	Follow string
	// SyncFollowers is the semi-synchronous commit requirement: a
	// mutation is acknowledged only after this many subscribed
	// followers have confirmed applying its LSN. 0 (default) keeps
	// acks local — asynchronous replication.
	SyncFollowers int
	// SyncTimeout bounds the semi-sync wait (default 5s); on expiry
	// the mutation is answered with an error and NOT acknowledged,
	// though it remains applied locally.
	SyncTimeout time.Duration
	// Heartbeat is the idle-stream heartbeat interval (default 500ms).
	Heartbeat time.Duration
	// TokenWait bounds how long a token-carrying LOOKUP waits for this
	// node to apply up to the token before answering BEHIND (default
	// 3s). Short enough that a client can fall back to the primary;
	// long enough to ride out a normal replication hiccup.
	TokenWait time.Duration
	// ShipRetain bounds a follower's ship log: after each periodic
	// durability sync the apply loop truncates the log to its newest
	// ShipRetain records (the synced engine covers the dropped prefix).
	// 0 (default) keeps everything. Chained subscribers reading below
	// the retained window get an error and must re-seed.
	ShipRetain int
	// SyncEvery is the follower's periodic local durability interval —
	// engine Sync + ship-log fsync off the ack path (default 1s). It is
	// also the ship-log truncation cadence when ShipRetain is set.
	SyncEvery time.Duration
}

// Replication error sentinels. The wire carries their text; clients
// match on the ErrTextReadOnly/ErrTextBehind prefixes.
var (
	// errNotWritable rejects mutations on a follower.
	errNotWritable = errors.New(wire.ErrTextReadOnly + ": node is a read-only replica")
	// errSyncTimeout fails a semi-sync commit whose followers lag.
	errSyncTimeout = errors.New("repl: timed out waiting for follower acks")
)

// replState is a node's replication machinery, shared by every
// connection: the ship log, the epoch/writable identity, the subscribed
// followers and their acknowledged LSNs, and the traffic counters.
type replState struct {
	ship       *wal.ShipLog
	statePath  string
	syncN      int
	syncTmo    time.Duration
	heartbeat  time.Duration
	tokenWait  time.Duration
	shipRetain int
	syncEvery  time.Duration

	mu       sync.Mutex
	epoch    uint64
	writable bool
	follower bool             // role for INFO: started with Follow
	subs     map[*conn]uint64 // subscribed follower conns -> acked LSN
	ackCh    chan struct{}    // closed+replaced when subs/acks change under a waiter
	ackWait  bool             // a waitFollowers call has taken ackCh since it was made

	// REPLBATCH frames sent (primary) and applied (follower).
	shipped  atomic.Int64
	replayed atomic.Int64

	// Insert and upsert records the follower loop replayed as inserts
	// (above the catch-up horizon) and as upserts (everything else).
	replayInserts atomic.Int64
	replayUpserts atomic.Int64

	// The replay pipeline (Follower): records appended after replay,
	// frames queued or started and not yet acknowledged, and nanoseconds
	// the replay finish step spent waiting for started runs.
	replayRecords  atomic.Int64
	replayInflight atomic.Int64
	replayWaitNs   atomic.Int64
}

// openRepl builds the replication state: open (or recover) the ship
// log and adopt the persisted epoch.
func openRepl(cfg ReplConfig) (*replState, error) {
	if cfg.ShipPath == "" || cfg.StatePath == "" {
		return nil, errors.New("server: ReplConfig needs ShipPath and StatePath")
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 5 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.TokenWait <= 0 {
		cfg.TokenWait = 3 * time.Second
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = time.Second
	}
	ship, err := wal.OpenShip(cfg.ShipPath, 1)
	if err != nil {
		return nil, err
	}
	epoch, err := loadReplEpoch(cfg.StatePath)
	if err != nil {
		ship.Close()
		return nil, err
	}
	return &replState{
		ship:       ship,
		statePath:  cfg.StatePath,
		syncN:      cfg.SyncFollowers,
		syncTmo:    cfg.SyncTimeout,
		heartbeat:  cfg.Heartbeat,
		tokenWait:  cfg.TokenWait,
		shipRetain: cfg.ShipRetain,
		syncEvery:  cfg.SyncEvery,
		epoch:      epoch,
		writable:   cfg.Follow == "",
		follower:   cfg.Follow != "",
		subs:       make(map[*conn]uint64),
		ackCh:      make(chan struct{}),
	}, nil
}

// appliedLSN is the highest LSN in the node's ship log — on a primary
// the engine's shard workers ship every mutation as they apply it, and
// on a follower the apply loop appends each replayed record, so this is
// the node's applied horizon for read tokens.
func (r *replState) appliedLSN() uint64 { return r.ship.NextLSN() - 1 }

// info snapshots the node's replication identity.
func (r *replState) info() wire.Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	role := uint8(wire.RolePrimary)
	if r.follower {
		role = wire.RoleFollower
	}
	return wire.Info{
		Epoch:      r.epoch,
		AppliedLSN: r.appliedLSN(),
		Writable:   r.writable,
		Role:       role,
	}
}

// isWritable reports whether mutations are accepted.
func (r *replState) isWritable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writable
}

// stats snapshots the replication counters for the STATS payload.
func (r *replState) stats() extbuf.ReplStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	current := int64(r.appliedLSN())
	var lag int64
	for _, acked := range r.subs {
		if l := current - int64(acked); l > lag {
			lag = l
		}
	}
	return extbuf.ReplStats{
		Epoch:          int64(r.epoch),
		CurrentLSN:     current,
		FollowerLag:    lag,
		FramesShipped:  r.shipped.Load(),
		FramesReplayed: r.replayed.Load(),
		ShipStartLSN:   int64(r.ship.StartLSN()),
	}
}

// epochNow reads the current epoch.
func (r *replState) epochNow() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// subscribe registers a follower connection (acked nothing yet) and
// unsubscribe drops it, waking semi-sync waiters so they re-count.
func (r *replState) subscribe(c *conn) {
	r.mu.Lock()
	r.subs[c] = 0
	r.bumpAckLocked()
	r.mu.Unlock()
}

func (r *replState) unsubscribe(c *conn) {
	r.mu.Lock()
	delete(r.subs, c)
	r.bumpAckLocked()
	r.mu.Unlock()
}

// ackFrom records a follower's applied-up-to LSN (sent as REPL_ACK on
// its subscribed connection) and wakes semi-sync waiters.
func (r *replState) ackFrom(c *conn, lsn uint64) {
	r.mu.Lock()
	if prev, ok := r.subs[c]; ok && lsn > prev {
		r.subs[c] = lsn
		r.bumpAckLocked()
	}
	r.mu.Unlock()
}

// bumpAckLocked wakes the semi-sync waiters by rotating the ack
// notification channel, if one of them has taken it (callers hold mu).
func (r *replState) bumpAckLocked() {
	if r.ackWait {
		close(r.ackCh)
		r.ackCh = make(chan struct{})
		r.ackWait = false
	}
}

// ackedBy counts followers that have confirmed applying lsn.
func (r *replState) ackedBy(lsn uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, acked := range r.subs {
		if acked >= lsn {
			n++
		}
	}
	return n
}

// waitFollowers implements the semi-synchronous commit rule: block
// until SyncFollowers subscribed followers have acknowledged applying
// lsn, or fail after SyncTimeout. With SyncFollowers 0 it returns
// immediately — asynchronous replication. With SyncFollowers > 1 the
// rule generalizes without primary fan-out: every follower acks its own
// applied horizon on its own subscription, and ackedBy simply counts
// them (in a chain, F2's progress is acked to F1, not here — only
// direct subscribers count toward the barrier).
//
// Fresh-subscriber semantics (audited): a newly subscribed follower
// starts at acked LSN 0, so it can never SATISFY a barrier for a real
// mutation (lsn >= 1) before catching up and acking — and it cannot
// STALL one either: barriers count satisfied followers, they never wait
// on the slowest, so a far-behind subscriber only delays a commit when
// fewer than SyncFollowers others are caught up, which is the semantics
// semi-sync promises. The lsn == 0 guard keeps a no-op mutation (empty
// batch, or replication-off engine returning no LSN) from blocking on
// "acked >= 0 by N followers" when no followers exist at all.
func (r *replState) waitFollowers(lsn uint64) error {
	if r.syncN == 0 || lsn == 0 {
		return nil
	}
	deadline := time.NewTimer(r.syncTmo)
	defer deadline.Stop()
	for {
		if r.ackedBy(lsn) >= r.syncN {
			return nil
		}
		r.mu.Lock()
		ch := r.ackCh
		r.ackWait = true
		r.mu.Unlock()
		if r.ackedBy(lsn) >= r.syncN {
			return nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("%w: lsn %d acked by %d of %d required",
				errSyncTimeout, lsn, r.ackedBy(lsn), r.syncN)
		}
	}
}

// waitApplied blocks until the node has applied minLSN — the replica
// side of an LSN read token — or fails after timeout with a BEHIND
// error the client can use to re-route.
func (r *replState) waitApplied(minLSN uint64, timeout time.Duration) error {
	if r.appliedLSN() >= minLSN {
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for r.appliedLSN() < minLSN {
		ch := r.ship.Changed()
		if r.appliedLSN() >= minLSN {
			break
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("%s: applied lsn %d behind read token %d",
				wire.ErrTextBehind, r.appliedLSN(), minLSN)
		}
	}
	return nil
}

// adoptEpoch records a higher epoch observed in the primary's stream,
// persisting it so a restart keeps counting from there.
func (r *replState) adoptEpoch(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return nil
	}
	r.epoch = epoch
	return saveReplEpoch(r.statePath, epoch)
}

// promote flips the node writable in a fresh epoch. The caller
// (Server.Promote) has already stopped the follower loop and synced
// the engine.
func (r *replState) promote() (wire.Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.writable {
		r.epoch++
		r.writable = true
		r.follower = false
		if err := saveReplEpoch(r.statePath, r.epoch); err != nil {
			r.epoch--
			r.writable = false
			r.follower = true
			return wire.Info{}, err
		}
	}
	return wire.Info{
		Epoch:      r.epoch,
		AppliedLSN: r.appliedLSN(),
		Writable:   true,
		Role:       wire.RolePrimary,
	}, nil
}

// close shuts the ship log. Streaming connections must be gone.
func (r *replState) close() error { return r.ship.Close() }

// The epoch state file: [4 magic "EXRP"] [4 version] [8 epoch] [4 crc],
// written atomically (temp + rename) so a crash leaves either the old
// or the new epoch, never a torn one.
const replStateMagic = 0x50525845

func loadReplEpoch(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read state: %w", err)
	}
	if len(data) != 20 ||
		binary.LittleEndian.Uint32(data[0:4]) != replStateMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != 1 ||
		binary.LittleEndian.Uint32(data[16:20]) != crc32.ChecksumIEEE(data[:16]) {
		// A torn state write can only lose an epoch bump; starting at 0
		// is wrong after a promotion, so fail loudly instead of healing.
		return 0, fmt.Errorf("repl: corrupt state file %s", path)
	}
	return binary.LittleEndian.Uint64(data[8:16]), nil
}

func saveReplEpoch(path string, epoch uint64) error {
	var data [20]byte
	binary.LittleEndian.PutUint32(data[0:4], replStateMagic)
	binary.LittleEndian.PutUint32(data[4:8], 1)
	binary.LittleEndian.PutUint64(data[8:16], epoch)
	binary.LittleEndian.PutUint32(data[16:20], crc32.ChecksumIEEE(data[:16]))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data[:], 0o644); err != nil {
		return fmt.Errorf("repl: write state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("repl: commit state: %w", err)
	}
	return nil
}

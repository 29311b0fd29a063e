// Package extbuf is a from-scratch reproduction of Wei, Yi, Zhang,
// "Dynamic External Hashing: The Limit of Buffering" (SPAA 2009,
// arXiv:0811.3062) as a usable Go library.
//
// The paper settles how much a memory buffer can reduce the insertion
// cost of an external (disk-resident) hash table without hurting its
// near-one-I/O lookups: writing t_q = 1 + Theta(1/b^c) for the expected
// successful-lookup cost on blocks of b items,
//
//   - for c > 1, insertions must cost 1 - O(1/b^((c-1)/4)) I/Os — the
//     buffer is useless, the plain Knuth table is already optimal;
//   - at c = 1, insertions can reach any constant eps > 0 but no better;
//   - for c < 1, insertions can reach Theta(b^(c-1)) = o(1), achieved by
//     the paper's bootstrapped structure (Theorem 2).
//
// This module provides:
//
//   - the Theorem 2 buffered hash table (New) and the logarithmic-method
//     table of Lemma 5 (NewLogMethod), both with tunable parameters;
//   - the classical baselines: external chaining (NewKnuth), block
//     linear probing (NewLinearProbing), extendible hashing
//     (NewExtendible), linear hashing (NewLinear), and a Jensen–Pagh
//     style high-load two-level table (NewTwoLevel);
//   - a layered external memory model (internal/iomodel): a
//     cost-accounting Disk that counts block transfers exactly as the
//     paper does, including the write-back-after-read-is-free
//     convention, over pluggable BlockStore backends — the default
//     in-memory simulated store and a file-backed store with a real
//     page cache (Config.Backend selects);
//   - a durability subsystem for the file backend: naming Config.Path
//     adds a write-ahead log and checkpointed superblock beside the
//     block file, so Open on an existing path reopens the table —
//     contents, parameters and block topology intact — and Flush is a
//     crash-safe acknowledgement barrier; deterministic crash injection
//     (Config.Crash) makes recovery testable in-process (DESIGN.md §1b);
//   - a network serving layer: cmd/hashserved serves a Sharded engine
//     over TCP with a CRC-framed pipelined wire protocol
//     (internal/wire, internal/server), extbuf/client is the pooled
//     async client, and cmd/hashload the closed-loop load generator;
//     mutations are acked behind a group-committed WAL fsync (Sync),
//     so a kill -9 loses no acknowledged write (DESIGN.md §2);
//   - the paper's lower-bound machinery — zone audits, characteristic
//     vectors, bin-ball games — and an experiment harness regenerating
//     Figure 1 and every theorem/lemma table in one command (cmd/paper).
//
// All tables implement the Table interface and report their exact I/O
// counts through Stats. Keys and values are uint64 words, matching the
// paper's one-word atomic items. See README.md for a quickstart,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for measured
// versus published results.
package extbuf

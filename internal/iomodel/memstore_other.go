//go:build !linux

package iomodel

// arena is empty off Linux: chunks are Go heap slices, which the
// collector reclaims with the store.
type arena struct{}

// newChunk returns a zeroed chunk of n entries.
func (s *MemStore) newChunk(n int) []Entry { return make([]Entry, n) }

// releaseChunks leaves the chunks to the collector.
func (s *MemStore) releaseChunks() {}

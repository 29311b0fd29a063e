//go:build !linux

package iomodel

import "testing"

// residentSlots: off Linux the slots are the heap the store grew by.
func residentSlots(t *testing.T, s *MemStore, grown int64) (slots, slack int64) {
	return grown, 0
}

//go:build linux

package iomodel

// memMappings is the number of MemStore mappings live in the process.
func memMappings() int64 { return liveMappings.Load() }

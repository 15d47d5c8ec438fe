package main

import (
	"os"
	"strings"
	"unsafe"
)

// canFlush reports whether the CPU has CLFLUSHOPT, which flushLines uses.
var canFlush = hasCPUFlag("clflushopt")

// flushLines writes back and evicts the n bytes at p from every cache level.
// Call it only when canFlush is set.
//
//go:noescape
func flushLines(p unsafe.Pointer, n int)

// hasCPUFlag reports whether /proc/cpuinfo lists flag for the CPU.
func hasCPUFlag(flag string) bool {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			for _, f := range strings.Fields(v) {
				if f == flag {
					return true
				}
			}
			return false
		}
	}
	return false
}

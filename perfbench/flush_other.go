//go:build !amd64

package main

import "unsafe"

// canFlush is false where no cache-flush instruction is wired up; the
// reference kernel then walks whatever its buffer left cached.
const canFlush = false

func flushLines(unsafe.Pointer, int) {}

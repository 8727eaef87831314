//go:build !linux

package main

import "runtime"

// onOneCPU runs f with one P; binding the thread to a CPU is Linux-only.
func onOneCPU(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

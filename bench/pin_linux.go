//go:build linux

package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set of 1024 CPUs.
type cpuMask [16]uint64

func affinity(op uintptr, m *cpuMask) syscall.Errno {
	_, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e
}

// onOneCPU runs f with one P, on a thread bound to the first CPU the
// process may use. On the baseline box, set-up timings of a free-running
// process often fell into a 1.6-2x slower mode for the whole process;
// with the process bound to one CPU, 15 runs in 16 did not.
func onOneCPU(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuMask
	if affinity(syscall.SYS_SCHED_GETAFFINITY, &all) == 0 {
		for i, w := range all {
			if w == 0 {
				continue
			}
			var one cpuMask
			one[i] = w & -w
			if affinity(syscall.SYS_SCHED_SETAFFINITY, &one) == 0 {
				defer affinity(syscall.SYS_SCHED_SETAFFINITY, &all)
			}
			break
		}
	}
	f()
}

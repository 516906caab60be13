package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread that runs only when
// its CPU would otherwise be idle, and yields to any other thread as
// soon as that one wakes.
const schedIdle = 5

// keepAwake busy-waits on every CPU under SCHED_IDLE until the process
// is killed; it is the body of the harness's -keep-awake child.
//
// On a virtual machine a CPU that goes idle halts, and waking it can
// take the host milliseconds, charged to the guest as steal time.
// Request/response traffic halts and wakes the CPUs thousands of times
// a second, which made serve latencies swing by 2x and more between
// identical runs. Kept busy at the lowest priority, the CPUs never halt
// — the same as booting with idle=poll — and the program's threads
// still get them the moment they are runnable.
func keepAwake() error {
	n := runtime.NumCPU()
	errs := make(chan error, n) // one send per thread
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				errs <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			errs <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Println("awake")
	select {}
}

// startKeepAwake starts the -keep-awake child and waits until all its
// threads spin.
func startKeepAwake() (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c, err := spawn(self, "-keep-awake")
	if err != nil {
		return nil, err
	}
	for !c.out.contains("awake") {
		if err := c.alive(); err != nil {
			return nil, err
		}
		runtime.Gosched()
	}
	return c, nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// childAttr puts a child in its own process group and has the kernel kill it
// if the harness itself dies without running its cleanup.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// pidsRunning lists the processes whose executable is bin.
func pidsRunning(bin string) []int {
	var pids []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// pinnedEnv marks a harness that already runs confined to one CPU.
const pinnedEnv = "BENCH_PINNED_CPU"

// pinToOneCPU confines the harness, and with it every process it will start,
// to the highest-numbered CPU it may run on, by narrowing the calling
// thread's affinity and re-executing itself: the new image's runtime then
// sizes itself for one CPU, and children inherit the mask. The box this
// benchmark is judged on is two vCPUs of a shared host. A closed-loop fleet
// spread over both idles each vCPU thousands of times a second, and every
// wake-up of an idle vCPU waits on the host's scheduler: measured here, that
// made the hot path a fifth slower and its throughput drift by a third
// within a minute. One always-busy vCPU is the steadier instrument.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %v", e)
	}
	cpu := -1
	for i := range mask {
		for b := 0; b < 64; b++ {
			if mask[i]&(1<<uint(b)) != 0 {
				cpu = 64*i + b
			}
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << uint(cpu%64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %v", cpu, e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu))
	return syscall.Exec(exe, os.Args, env)
}

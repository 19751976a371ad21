//go:build !linux

package main

import "syscall"

func childAttr() *syscall.SysProcAttr { return &syscall.SysProcAttr{Setpgid: true} }

// pidsRunning needs /proc; elsewhere the leftover-process check is skipped.
func pidsRunning(string) []int { return nil }

const pinnedEnv = "BENCH_PINNED_CPU"

// pinToOneCPU needs sched_setaffinity; elsewhere the harness runs unpinned.
func pinToOneCPU() error { return nil }

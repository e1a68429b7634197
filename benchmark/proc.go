package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/cluster"
)

// Everything here measures at the process boundary, from /proc: the nodes are
// black boxes to the benchmark. A file that cannot be read or parsed yields
// zeros (the counters are diagnostics, never gated), except where noted.

const clockTick = 100 // USER_HZ: /proc cpu times are in 10 ms ticks on Linux

// procCPUTicks returns utime+stime of pid in clock ticks.
func procCPUTicks(pid int) uint64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return ut + st
}

// statusField sums a "Name:\t<n> ..." line of a /proc status file.
func statusField(path, name string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var sum uint64
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseUint(f[0], 10, 64)
				sum += n
			}
		}
	}
	return sum
}

// procCtxSwitches sums voluntary and involuntary context switches over every
// thread of pid (the per-process status file covers only the main thread).
func procCtxSwitches(pid int) uint64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	var sum uint64
	for _, t := range tasks {
		sum += statusField(t, "voluntary_ctxt_switches") + statusField(t, "nonvoluntary_ctxt_switches")
	}
	return sum
}

// loopbackCounters returns packets and bytes received on lo. Every packet the
// deployment sends crosses loopback, so rx counts each exactly once.
func loopbackCounters() (pkts, bytes uint64) {
	b, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "lo:"); ok {
			if f := strings.Fields(rest); len(f) >= 2 {
				bytes, _ = strconv.ParseUint(f[0], 10, 64)
				pkts, _ = strconv.ParseUint(f[1], 10, 64)
			}
		}
	}
	return pkts, bytes
}

// pinnedCPU is the CPU pinToOneCPU chose; -1 while the process is unpinned
// (tests), when the host counters cover every CPU.
var pinnedCPU = -1

// pinToOneCPU restricts every thread of this process, and so every process it
// starts from now on, to the highest-numbered CPU it may use, and gives the
// driver one P. On this small shared VM a deployment spread over two vCPUs
// spends the second one on cross-CPU wake-ups whose cost follows the host's
// load, not the code's: throughput was no higher than on one CPU and swung
// ±20% between runs. On one CPU the box is saturated by construction and
// throughput is 1 / (CPU time per op). See README "Sizing".
func pinToOneCPU() error {
	var mask [128]byte // room for 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*8 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/8]&(1<<(i%8)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity returned an empty CPU set")
	}
	mask = [128]byte{}
	mask[cpu/8] = 1 << (cpu % 8)
	// New threads inherit the mask of the thread that creates them, so once
	// every existing thread is pinned the process stays pinned. A thread
	// created while the first pass runs is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	pinnedCPU = cpu
	return nil
}

// hostCPU returns total, idle (idle+iowait) and steal ticks from /proc/stat:
// of the pinned CPU when there is one, else of the whole host.
func hostCPU() (total, idle, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	want := "cpu"
	if pinnedCPU >= 0 {
		want = "cpu" + strconv.Itoa(pinnedCPU)
	}
	var f []string
	for _, line := range strings.Split(string(b), "\n") {
		if f = strings.Fields(line); len(f) > 0 && f[0] == want {
			break
		}
	}
	for i := 1; i < len(f); i++ {
		n, _ := strconv.ParseUint(f[i], 10, 64)
		total += n
		switch i {
		case 4, 5:
			idle += n
		case 8:
			steal += n
		}
	}
	return total, idle, steal
}

// boundary is one reading of every process-boundary counter.
type boundary struct {
	nodes              [numNodes]cluster.SessionStats
	nodeTicks, nodeCtx uint64
	selfTicks          uint64
	loPkts, loBytes    uint64
	cpuTotal, cpuIdle  uint64
	cpuSteal           uint64
}

func readBoundary(d *deployment) (boundary, error) {
	var b boundary
	for i := range b.nodes {
		st, err := d.cl.Stats(i)
		if err != nil {
			return b, fmt.Errorf("stats of node %d: %w", i, err)
		}
		b.nodes[i] = st
	}
	for _, pid := range d.pids {
		b.nodeTicks += procCPUTicks(pid)
		b.nodeCtx += procCtxSwitches(pid)
	}
	b.selfTicks = procCPUTicks(os.Getpid())
	b.loPkts, b.loBytes = loopbackCounters()
	b.cpuTotal, b.cpuIdle, b.cpuSteal = hostCPU()
	return b, nil
}

// counts are the per-op boundary metrics of one measured window.
type counts struct {
	HitRate       float64 `json:"node.hit_rate"`
	RemoteFrac    float64 `json:"node.remote_frac"`
	FrozenRetries float64 `json:"node.frozen_retries"`
	NodeCPUus     float64 `json:"node.cpu_us_per_op"`
	NodeCtxsw     float64 `json:"node.ctxsw_per_op"`
	NodeRSSMB     float64 `json:"node.rss_mb"`
	DriverCPUus   float64 `json:"driver.cpu_us_per_op"`
	WirePkts      float64 `json:"wire.pkts_per_op"`
	WireBytes     float64 `json:"wire.bytes_per_op"`
	HostIdle      float64 `json:"host.idle_frac"`
	HostSteal     float64 `json:"host.steal_frac"`
}

// diffBoundary turns two readings around a window of ops operations into
// per-op counts. rss is read now (it is a level, not a delta).
func diffBoundary(a, b boundary, ops int, d *deployment) counts {
	var hits, misses, remote, frozen uint64
	for i := range a.nodes {
		hits += b.nodes[i].CacheHits - a.nodes[i].CacheHits
		misses += b.nodes[i].CacheMisses - a.nodes[i].CacheMisses
		remote += b.nodes[i].RemoteOps - a.nodes[i].RemoteOps
		frozen += b.nodes[i].FrozenRetries - a.nodes[i].FrozenRetries
	}
	var rssKB uint64
	for _, pid := range d.pids {
		rssKB += statusField(fmt.Sprintf("/proc/%d/status", pid), "VmRSS")
	}
	n := float64(max(ops, 1))
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	tickUS := 1e6 / clockTick
	return counts{
		HitRate:       ratio(hits, hits+misses),
		RemoteFrac:    float64(remote) / n,
		FrozenRetries: float64(frozen),
		NodeCPUus:     float64(b.nodeTicks-a.nodeTicks) * tickUS / n,
		NodeCtxsw:     float64(b.nodeCtx-a.nodeCtx) / n,
		NodeRSSMB:     float64(rssKB) / 1024,
		DriverCPUus:   float64(b.selfTicks-a.selfTicks) * tickUS / n,
		WirePkts:      float64(b.loPkts-a.loPkts) / n,
		WireBytes:     float64(b.loBytes-a.loBytes) / n,
		HostIdle:      ratio(b.cpuIdle-a.cpuIdle, b.cpuTotal-a.cpuTotal),
		HostSteal:     ratio(b.cpuSteal-a.cpuSteal, b.cpuTotal-a.cpuTotal),
	}
}

// spinCanary runs a fixed arithmetic loop on one core for d and returns
// millions of iterations per second: a reading of how much CPU this host is
// giving us right now, independent of the system under test.
func spinCanary(d time.Duration) float64 {
	start := time.Now()
	var x uint64 = 88172645463325252
	iters := 0
	for time.Since(start) < d {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += 1 << 16
	}
	canarySink = x
	return float64(iters) / time.Since(start).Seconds() / 1e6
}

var canarySink uint64

// fingerprint identifies the host and configuration a result came from.
type fingerprint struct {
	Commit         string `json:"commit"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	NProc          int    `json:"nproc"`
	PinnedCPU      int    `json:"pinned_cpu"`
	DriverMaxProcs int    `json:"driver_gomaxprocs"`
	NodeMaxProcs   int    `json:"node_gomaxprocs"`
	NodeWorkers    int    `json:"node_workers"`
	Nodes          int    `json:"nodes"`
	Keys           int    `json:"keys"`
	ValueBytes     int    `json:"value_bytes"`
	HotKeys        int    `json:"hot_keys"`
	InFlight       int    `json:"in_flight"`
}

func readFingerprint(root string) fingerprint {
	fp := fingerprint{
		Commit: "unknown", GoVersion: runtime.Version(), Kernel: "unknown",
		NProc: runtime.NumCPU(), PinnedCPU: pinnedCPU, DriverMaxProcs: runtime.GOMAXPROCS(0),
		NodeMaxProcs: nodeGOMAXPROCS, NodeWorkers: nodeWorkers,
		Nodes: numNodes, Keys: numKeys, ValueBytes: valueSize, HotKeys: hotKeys, InFlight: inFlight,
	}
	// A checkout that is not a git repository reports "unknown"; git is not
	// asked, or it would search the directories above the checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			fp.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

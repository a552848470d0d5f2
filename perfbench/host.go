package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// calibIters sizes the fixed integer kernel run before and after each
// workload (about 10 ms on the 2.1 GHz sandbox). Its time moves only with
// the host, so a drift between the two readings marks a contended run.
const calibIters = 5_000_000

var calibSink uint64

// calib times the fixed kernel seven times and returns the median in ns.
func calib() float64 {
	var runs [7]float64
	for r := range runs {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < calibIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		runs[r] = float64(time.Since(t0))
	}
	return quantile(runs[:], 0.5)
}

// threadCPU reads the calling thread's CPU clock. The sandbox's hypervisor
// takes around 15 % of wall time away from the guest in bursts, which a
// wall-clock rate would report as simulator speed; the thread clock does not
// run while the vCPU is descheduled. main locks the benchmark's goroutine to
// its thread, and every timed phase is driven from that goroutine alone.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo is the provenance stored with every result.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// memCounters is the slice of runtime.MemStats the ledger reads at span
// boundaries. ReadMemStats stops the world, so it is called only at phase
// edges, never per segment.
type memCounters struct {
	mallocs  uint64
	pauseNs  uint64
	gcCycles uint32
	heapMB   float64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC, heapMB: float64(ms.HeapAlloc) / (1 << 20)}
}

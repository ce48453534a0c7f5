package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// On a shared host the hypervisor takes CPU time from this machine at
// will ("steal"), which stretches every interval measured here by the
// load of other tenants; on a small shared VM that stretch can reach
// half of the wall time for minutes. The benchmark therefore
// reports each measured interval multiplied by the share of CPU time
// the machine ran rather than waited for the hypervisor over that
// interval, so that runs made at different times compare the code, not
// the neighbours. The raw wall time is printed beside it.

// cpuTicks is a reading of the machine's CPU time, summed over its CPUs.
type cpuTicks struct{ busy, steal int64 }

// readCPU reads /proc/stat; it returns zeros where that is unavailable,
// which leaves intervals uncorrected.
func readCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// unstolen is the share of the CPU time between two readings that the
// machine ran rather than had stolen: busy/(busy+steal), 1 without steal.
func unstolen(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// window is a measured interval.
type window struct {
	t0 time.Time
	c0 cpuTicks
}

func startWindow() window { return window{time.Now(), readCPU()} }

// stop returns the interval's steal-corrected length.
func (w window) stop() time.Duration {
	d, f := w.measure()
	return scale(d, f)
}

// measure returns the interval's wall time and its unstolen share.
func (w window) measure() (time.Duration, float64) {
	d := time.Since(w.t0)
	return d, unstolen(w.c0, readCPU())
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// settle starts a unit of measurement from a quiet machine: the garbage
// of the previous unit collected and the files it wrote flushed, so one
// unit's leftovers are not charged to the next.
func settle() {
	runtime.GC()
	syscall.Sync()
}

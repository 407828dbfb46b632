package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pct returns the p-quantile (0..1) of sorted, by the nearest-rank rule.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sortedCopy returns a sorted copy of ds.
func sortedCopy(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

func medianDur(ds []time.Duration) time.Duration { return pct(sortedCopy(ds), 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows is the number of windows a timed stretch is split into where it
// is not split into passes: latency percentiles and rates are taken per
// window and reported as the median over the windows.
const windows = 9

// windowOf is the window an offset into a stretch of length d falls in.
func windowOf(offset, d time.Duration) int {
	return min(int(int64(offset)*windows/int64(d)), windows-1)
}

// windowedPct returns the median over the windows of each window's
// p-quantile, so one slow stretch of a shared host does not set the figure.
func windowedPct(ws [][]time.Duration, p float64) time.Duration {
	var qs []time.Duration
	for _, w := range ws {
		if len(w) > 0 {
			qs = append(qs, pct(sortedCopy(w), p))
		}
	}
	return medianDur(qs)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// all concatenates the windows.
func all(ws [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, w := range ws {
		out = append(out, w...)
	}
	return out
}

// refKeys is the size of the reference computation: sorting this many fixed
// pseudo-random keys (2 MB).
const refKeys = 1 << 19

// calibrations is how many times the reference computation is timed, before
// any library code runs. Its median is printed as host information only.
const calibrations = 5

// calibrate times the reference computation n times with the library idle.
func calibrate(n int) []time.Duration {
	runtime.GC()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = hostRef()
	}
	return out
}

// hostRef times the reference computation: a fixed workload no change to
// the library can affect.
func hostRef() time.Duration {
	keys := make([]uint32, refKeys)
	x := uint32(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		keys[i] = x
	}
	t0 := time.Now()
	slices.Sort(keys)
	return time.Since(t0)
}

// peakRSSMB reads the process's resident-set high-water mark, VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// hostSettings are printed with every run: the numbers are only comparable
// on the same host and settings.
func hostSettings(dir string) []string {
	return []string{
		"nproc=" + strconv.Itoa(runtime.NumCPU()),
		"GOMAXPROCS=" + strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"scratch_fs=" + fsType(dir),
		"latencies are this host's (page cache, shared CPU), not a device's",
	}
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail returns the highest whole percentile q that leaves at least
// minBeyond samples above it, and its nearest-rank value. A tail is never
// below the median: when no percentile from p50 up qualifies, which is the
// case for fewer than 2·minBeyond samples, tail returns the maximum as
// q = 100.
func tail(xs []float64) (q int, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for q = 99; q >= 50; q-- {
		rank := max(1, int(math.Ceil(float64(q)*float64(n)/100)))
		if n-rank >= minBeyond {
			return q, s[rank-1]
		}
	}
	if n == 0 {
		return 100, 0
	}
	return 100, s[n-1]
}

// cpuSeconds is the user+system CPU time of a getrusage snapshot.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// cpuDelta is the CPU seconds the process used between two snapshots.
func cpuDelta(before, after *syscall.Rusage) float64 {
	return cpuSeconds(after) - cpuSeconds(before)
}

// rusage snapshots the process's resource usage.
func rusage() *syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return &ru
}

// procStatusMB reads one kB field of /proc/self/status (VmHWM, VmRSS) in MiB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", field, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not in /proc/self/status", field)
}

// tally counts the operations a run attempted and how each one failed.
type tally struct {
	attempted  int // profiles run and jobs submitted
	errors     int // profiles or jobs that returned an error
	refused    int // submissions the daemon turned away
	mismatched int // reports that differ from their reference
}

func (t *tally) failed() int { return t.errors + t.refused + t.mismatched }

// failedFrac is failed operations over attempted ones.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

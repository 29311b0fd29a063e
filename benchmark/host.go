package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"extbuf/internal/stats"
)

// quietStealFrac is the quiet-segment rule: a segment (or set-up
// attempt) counts as quiet when the hypervisor stole at most this share
// of the machine's CPU time (ncpu x wall) while it ran. Measured on the
// 2-vCPU VM this benchmark was written on, a pure ALU spin loop took
// 0.205-0.589 s of wall clock at a constant 0.205 s of CPU, and the
// difference was exactly the steal column; see README.md.
const quietStealFrac = 0.02

// userHZ is the unit of /proc/stat's cpu columns (USER_HZ, 100 on every
// Linux ABI Go supports).
const userHZ = 100

// errNoSteal reports a /proc/stat without a steal column (or no
// /proc/stat at all): every segment then counts as quiet.
var errNoSteal = errors.New("no steal column")

// parseSteal returns the steal ticks of the aggregate "cpu" line of a
// /proc/stat image: the 8th value after the label.
func parseSteal(stat []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, errNoSteal
		}
		return strconv.ParseInt(f[8], 10, 64)
	}
	return 0, errNoSteal
}

// clock is one reading of everything a segment is measured against.
type clock struct {
	wall  time.Time
	cpu   time.Duration // user+sys of this process
	steal int64         // machine-wide steal ticks; -1 when unavailable
}

func readClock() clock {
	c := clock{steal: -1}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		if s, err := parseSteal(data); err == nil {
			c.steal = s
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.wall = time.Now()
	return c
}

// interval is what passed between two clock readings.
type interval struct {
	wall  time.Duration
	cpu   time.Duration
	steal float64 // stolen share of ncpu x wall; 0 when unavailable
}

func since(a, b clock) interval {
	iv := interval{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu}
	if a.steal >= 0 && b.steal >= 0 && iv.wall > 0 {
		stolen := float64(b.steal-a.steal) / userHZ
		iv.steal = stolen / (float64(runtime.NumCPU()) * iv.wall.Seconds())
	}
	return iv
}

// peakRSSMB is ru_maxrss of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// segmentsPerSecond fixes how many segments a run executes: segments
// are sized for about half a second on a quiet host, so a run of s
// seconds is 2s segments, every one of them executed by every run —
// counts therefore cover the same segments in every run and compare
// exactly. Timing medians need half of them quiet.
const segmentsPerSecond = 2

func countQuiet(steal []float64) int {
	n := 0
	for _, s := range steal {
		if s <= quietStealFrac {
			n++
		}
	}
	return n
}

// selectQuiet returns the indices of the segments the timing medians are
// taken over: every quiet segment, or — when fewer than quietMin are
// quiet — the quietMin least-stolen ones, with noisy set. A run is never
// extended to find more quiet segments: on a host that steals for
// minutes at a time that only makes the run longer.
func selectQuiet(steal []float64, quietMin int) (idx []int, noisy bool) {
	for i, s := range steal {
		if s <= quietStealFrac {
			idx = append(idx, i)
		}
	}
	if len(idx) >= quietMin || len(idx) == len(steal) {
		return idx, false
	}
	idx = idx[:0]
	for i := range steal {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:min(quietMin, len(idx))]
	sort.Ints(idx)
	return idx, true
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is stats.Quantile with 0, not NaN, for an empty slice, so
// every metric stays encodable as JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

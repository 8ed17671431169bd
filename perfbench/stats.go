package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// latencies is one operation kind's samples on one stream.
type latencies []time.Duration

// quantile returns the nearest-rank q-quantile of the samples; it sorts
// them in place.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	slices.Sort(l)
	return l[max(0, min(rank(q, len(l)), len(l))-1)]
}

// rank is the 1-based nearest rank of the q-quantile of n samples; the
// epsilon keeps products like 0.9*100 from rounding up a rank.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// tailQuantile picks the highest of p99.9, p99, p90 and p50 that has at
// least ten samples beyond it, so a reported tail always rests on
// several observations.
func tailQuantile(n int) (q float64, name string) {
	for _, c := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if n-rank(c.q, n) >= 10 {
			return c.q, c.name
		}
	}
	return 0.5, "p50"
}

// describe renders the samples as "p50 X, <tail> Y (n=N)" in the unit
// given, with the tail chosen by tailQuantile.
func (l latencies) describe(unit time.Duration, unitName string) string {
	if len(l) == 0 {
		return "no samples"
	}
	q, name := tailQuantile(len(l))
	return fmt.Sprintf("p50 %.4g %s, %s %.4g %s (n=%d)",
		float64(l.quantile(0.5))/float64(unit), unitName,
		name, float64(l.quantile(q))/float64(unit), unitName, len(l))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a non-empty slice (sorted in place).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the process's VmHWM from its current resident
// set (Linux clear_refs value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostStamp identifies the machine a run was measured on.
func hostStamp() map[string]any {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
	}
}

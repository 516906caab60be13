package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the two nearest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies prints a latency sample's size and percentiles, marking a
// percentile that has fewer than ten samples beyond it.
func latencies(label string, xs []float64) {
	fmt.Printf("latency %-22s n=%d", label, len(xs))
	for _, q := range []float64{0.5, 0.9, 0.99} {
		beyond := int(float64(len(xs)) * (1 - q))
		mark := ""
		if beyond < 10 {
			mark = "(<10 beyond)"
		}
		fmt.Printf(" p%g=%.3fms%s", q*100, quantile(xs, q), mark)
	}
	fmt.Printf(" max=%.3fms\n", quantile(xs, 1))
}

// setupMedian runs one set-up round the given number of times and
// returns the median of their durations in seconds with the value the
// last round returned. An earlier round's value is dropped, and its
// garbage collected, before the next round starts, untimed.
func setupMedian[T any](label string, rounds int, round func() (T, error)) (T, float64, error) {
	var last, zero T
	var secs []float64
	for i := 0; i < rounds; i++ {
		last = zero
		runtime.GC()
		start := time.Now()
		v, err := round()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	fmt.Printf("setup %-24s rounds=%v median=%.4fs\n", label, fmtSecs(secs), median(secs))
	return last, median(secs), nil
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// overhead is the traced-versus-untraced change of a latency, in percent.
func overhead(untraced, traced float64) float64 { return (traced - untraced) / untraced * 100 }

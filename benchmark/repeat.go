package main

// repeat.go is the repeatability tool: -repeat N runs one workload N times
// in child processes and reports, per end-to-end metric, how far the runs
// disagree. With one seed it answers "is this metric steady enough to carry
// its bound"; with -seed-step 1 it repeats the acceptance test of the
// benchmark itself (interquartile range over seeds, as a share of the
// median).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runOnce runs the benchmark binary once and parses its last line.
func runOnce(c config, seed int64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", c.workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(c.seconds), "--trace", "0"}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run with seed %d: %v", seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res struct {
		Failed  int
		Metrics map[string]metricValue
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("run with seed %d: last line is not a result: %v", seed, err)
	}
	values := map[string]float64{"ops_failed": float64(res.Failed)}
	for name, m := range res.Metrics {
		values[name] = m.Value
	}
	return values, nil
}

// runRepeat prints the spread table and returns the exit code: 1 if a
// metric's spread exceeds its bound. With one seed the spread is
// (max-min)/median and the two size-and-quality metrics must not differ at
// all; across seeds it is the interquartile range over the median.
func runRepeat(c config, n int, seedStep int) int {
	runs := make([]map[string]float64, 0, n)
	for i := 0; i < n; i++ {
		seed := c.seed + int64(i*seedStep)
		values, err := runOnce(c, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("run %d seed %d: %s\n", i+1, seed, formatRun(values))
		runs = append(runs, values)
	}
	spreadName := "(max-min)/median"
	if seedStep != 0 {
		spreadName = "IQR/median"
	}
	fmt.Printf("\n%s, %d runs, seed %d step %d\n", c.workload, n, c.seed, seedStep)
	fmt.Printf("| %-24s | %12s | %12s | %12s | %16s | %6s |\n", "metric", "min", "median", "max", spreadName, "bound")
	fmt.Println("|---|---|---|---|---|---|")
	code := 0
	for _, d := range endToEnd {
		xs := make([]float64, n)
		for i, r := range runs {
			xs[i] = r[d.Name]
		}
		sort.Float64s(xs)
		med := median(xs)
		spread := (xs[n-1] - xs[0]) / med
		bound := d.Bound
		if seedStep != 0 {
			q1, q3 := quartiles(xs)
			spread = (q3 - q1) / med
		} else if d.Unit == "B" || d.Unit == "ratio" {
			bound = 0 // same seed, same work: size and precision repeat exactly
		}
		verdict := ""
		// setup_s is exempt across seeds, as in the acceptance test.
		if spread > bound && !(seedStep != 0 && d.Name == "setup_s") {
			verdict = " EXCEEDED"
			code = 1
		}
		fmt.Printf("| %-24s | %12.6g | %12.6g | %12.6g | %16.4f | %6.2f |%s\n", d.Name, xs[0], med, xs[n-1], spread, bound, verdict)
	}
	for _, r := range runs {
		if r["ops_failed"] != 0 {
			fmt.Println("a run had failed ops")
			code = 1
		}
	}
	return code
}

// quartiles returns the first and third quartile of sorted xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// that the table reads as the driver's acceptance test does.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func formatRun(values map[string]float64) string {
	var b strings.Builder
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "%s=%.6g ", d.Name, values[d.Name])
	}
	return strings.TrimSpace(b.String())
}

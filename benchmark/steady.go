package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs each workload --runs times untraced, one process per run
// with seeds first..first+runs-1, and prints the median and quartiles of
// every end-to-end metric with the quartile spread as a share of the
// median — the figures the bounds in BENCHMARK.json are set from.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	first := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 10, "timed phase per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println("# machine", fingerprint())
	for _, wl := range workloadNames() {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for k := 0; k < *runs; k++ {
			seed := *first + int64(k)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: checks failed:\n%s", wl, seed, out)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("\n## %s: %d runs, seeds %d..%d, %gs each; failed/attempted per run: %s\n",
			wl, *runs, *first, *first+int64(*runs)-1, *seconds, strings.Join(shares, " "))
		fmt.Printf("| %-30s | %-6s | %14s | %14s | %14s | %8s |\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
		fmt.Printf("|%s|%s|%s|%s|%s|%s|\n", strings.Repeat("-", 32), strings.Repeat("-", 8),
			strings.Repeat("-", 16), strings.Repeat("-", 16), strings.Repeat("-", 16), strings.Repeat("-", 10))
		var names []string
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, med, q3 := quartiles(values[n])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("| %-30s | %-6s | %14.4f | %14.4f | %14.4f | %7.2f%% |\n", n, units[n], q1, med, q3, 100*spread)
		}
	}
	return nil
}

// lastResult parses the last line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(values, n=4)).
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(j int) float64 {
		m := n + 1
		pos := j * m // position*4, 1-based
		i, rem := pos/4, pos%4
		switch {
		case i < 1:
			return v[0]
		case i >= n:
			return v[n-1]
		}
		return v[i-1] + (v[i]-v[i-1])*float64(rem)/4
	}
	return at(1), at(2), at(3)
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the benchmark definition at the repository root; the
// steadiness check reads its end-to-end metrics and bounds.
const benchmarkFile = "BENCHMARK.json"

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// steadyMain runs two sets of untraced runs of this build, one process at
// a time, and prints for every end-to-end metric and workload both sets'
// medians and quartiles and whether they agree: each set's spread (the
// interquartile range over the median) within the metric's bound — except
// setup_s, whose spread is not bounded — and the second median no worse
// than the first by more than the bound. The share of failed operations
// must be equal in both sets. It exits 1 when anything disagrees.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	seconds := fs.Int("seconds", 30, "--seconds of each run")
	seedFrom := fs.Int64("seed", 1, "first seed; run i of a set uses seed+i")
	names := fs.String("workloads", workloadNames(), "comma-separated workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var def struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", benchmarkFile, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ok := true
	for _, w := range strings.Split(*names, ",") {
		w = strings.TrimSpace(w)
		var sets [2][]*result
		for set := range sets {
			for i := 0; i < *runs; i++ {
				seed := *seedFrom + int64(i)
				res, err := runChild(self, w, seed, *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				sets[set] = append(sets[set], res)
				logf("steady: %s set %d seed %d: run_s %.4f", w, set+1, seed, res.Metrics["run_s"].Value)
			}
		}
		fmt.Printf("\n%s (%d runs per set)\n", w, *runs)
		fmt.Printf("%-12s %12s %12s %12s  %12s %12s %12s  %7s %7s %7s  %s\n",
			"metric", "median1", "q1_1", "q3_1", "median2", "q1_2", "q3_2", "spread1", "spread2", "shift", "agree")
		for _, m := range def.EndToEnd {
			var xs [2][]float64
			for set := range sets {
				for _, r := range sets[set] {
					xs[set] = append(xs[set], r.Metrics[m.Name].Value)
				}
			}
			agree := true
			var med, lo, hi, spr [2]float64
			for set := range xs {
				med[set] = median(xs[set])
				lo[set], hi[set] = quartiles(xs[set])
				spr[set] = spread(xs[set])
				if m.Name != "setup_s" && !(spr[set] <= m.Bound) {
					agree = false
				}
			}
			shift := med[1]/med[0] - 1
			if worse(shift, m.Better) > m.Bound || math.IsNaN(shift) {
				agree = false
			}
			ok = ok && agree
			fmt.Printf("%-12s %12.5g %12.5g %12.5g  %12.5g %12.5g %12.5g  %7.4f %7.4f %+7.4f  %v\n",
				m.Name, med[0], lo[0], hi[0], med[1], lo[1], hi[1], spr[0], spr[1], shift, agree)
		}
		var att, fail [2]int
		for set := range sets {
			for _, r := range sets[set] {
				att[set] += r.Attempted
				fail[set] += r.Failed
			}
		}
		// The failed shares must be exactly equal: compare them as fractions.
		sameShare := fail[0]*att[1] == fail[1]*att[0]
		ok = ok && sameShare
		fmt.Printf("failed: %d of %d and %d of %d, equal share: %v\n", fail[0], att[0], fail[1], att[1], sameShare)
		for set := range sets {
			fmt.Printf("set %d run_s:", set+1)
			for _, r := range sets[set] {
				fmt.Printf(" %.4f", r.Metrics["run_s"].Value)
			}
			fmt.Println()
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// worse is how much worse a relative shift is, given the better direction.
func worse(shift float64, better string) float64 {
	if better == "higher" {
		return -shift
	}
	return shift
}

// runChild runs one untraced benchmark run in a child process and parses
// its result line.
func runChild(self, w string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("output checks failed\n%s", errb.String())
	}
	return res, nil
}

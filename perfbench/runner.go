package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runner repeats the workload in o.runs child processes, one per seed
// from o.seed up, and prints each run's end-to-end metrics and
// operation counts followed by the median, the quartiles and their
// spread. It exits nonzero if any run fails or reports incorrect
// output.
func runner(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		res, perr := lastResult(out.String())
		if runErr != nil || perr != nil || !res.Correct {
			fmt.Fprintf(stderr, "run %d (seed %d) failed: %v %v\n", i+1, seed, runErr, perr)
			status = 1
			continue
		}
		var parts []string
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, m.Value))
		}
		fmt.Fprintf(stdout, "run %2d  seed %-4d attempted %d  failed %d  %s\n",
			i+1, seed, res.Attempted, res.Failed, strings.Join(parts, "  "))
	}
	fmt.Fprintf(stdout, "%-16s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range sortedKeys(values) {
		q1, med, q3 := quartiles(values[name])
		fmt.Fprintf(stdout, "%-16s %14.6g %14.6g %14.6g %7.2f%%  %s\n", name, q1, med, q3, 100*(q3-q1)/med, units[name])
	}
	return status
}

// lastResult parses the JSON object on the last line of out.
func lastResult(out string) (result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method (Python's statistics.quantiles default),
// so the spread printed here is the one a Python check computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

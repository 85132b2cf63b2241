// Command perfbench is the archive simulator's one-command benchmark. It
// runs one workload (ingest, campaign or tape_cycle) in rounds for a
// fixed number of wall seconds, checks every round's outputs against
// figures it computes itself, and prints each metric by name and unit.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
//
//	go run . --workload ingest --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds and reports the per-layer
// metrics, the tracing overhead, a spans file and a CPU profile. With
// --runs N it is a runner: it repeats the workload in N child processes
// at seeds seed..seed+N-1 and prints each run with the median and
// quartiles. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceDir, under the working directory, receives a traced run's spans
// and CPU profile; run.sh runs the benchmark from the repository root,
// where .gitignore covers it.
const traceDir = ".bench_build/perfbench"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string // directory for a traced run's files
}

func run(args []string, stdout, stderr io.Writer) int {
	o := options{out: traceDir}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: ingest, campaign or tape_cycle")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the files inside every job")
	fs.Float64Var(&o.seconds, "seconds", 40, "wall seconds to measure for; whole rounds are run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced rounds, 0 end-to-end metrics")
	fs.IntVar(&o.runs, "runs", 0, "runner mode: repeat the workload in this many processes at consecutive seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, err := lookup(o.workload)
	if err != nil || (trace != 0 && trace != 1) || o.seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.runs > 0 {
		return runner(o, stdout, stderr)
	}
	// Each workload runs in its own process on at most two processors,
	// so figures do not depend on how many cores the host has.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

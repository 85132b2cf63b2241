package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the test checks the
// output against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsReducedSize runs every workload at a reduced size, once
// untraced and once traced, and fails on a failed correctness check or
// a metric BENCHMARK.json names but the run does not report.
func TestWorkloadsReducedSize(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		w, err := lookup(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.scaled(2, 300)
		for _, trace := range []bool{false, true} {
			// Traced rounds run for half a second in all, so the CPU
			// profile holds samples however small a round is.
			o := options{workload: w.name, seed: 3, seconds: 1e-3, trace: trace, out: t.TempDir()}
			if trace {
				o.seconds = 0.5
			}
			res, err := measure(w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: a correctness check failed", w.name, trace)
			}
			// The retrieve fault fails one operation in every tape_cycle
			// round: archive, migrate, recall, verify and tear down each
			// job, plus the retrieve job's archive, migrate, retrieve and
			// teardown and the audit. Nothing else fails.
			perRound := 5*w.jobs + 5
			switch {
			case res.Attempted == 0:
				t.Errorf("%s trace=%v: no operations attempted", w.name, trace)
			case w.tape && res.Failed*perRound != res.Attempted:
				t.Errorf("%s trace=%v: %d of %d operations failed, want 1 in %d", w.name, trace, res.Failed, res.Attempted, perRound)
			case !w.tape && res.Failed != 0:
				t.Errorf("%s trace=%v: %d operations failed", w.name, trace, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
			if trace {
				var sum float64
				for _, c := range cpuBuckets {
					sum += res.Metrics["cpu."+c].Value
				}
				if math.Abs(sum-100) > 1e-6 {
					t.Errorf("%s: CPU shares sum to %v%%", w.name, sum)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the runner's quartiles to Python's
// statistics.quantiles(xs, n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured round plus what the Go runtime spent on it.
type sample struct {
	*round
	traced   bool
	wall     float64 // wall seconds for the whole round, set-up included
	cpuUsed  float64 // CPU seconds the process used in the round
	alloc    uint64  // heap bytes allocated
	mallocs  uint64
	gcs      uint32
	gcPause  float64 // seconds of stop-the-world GC pauses
	gcCPU    float64 // CPU seconds the garbage collector used
	cpuAvail float64 // CPU seconds available: GOMAXPROCS integrated over the round
	profile  []byte  // CPU profile of a traced round
}

// runtimeCPU reads the runtime's own CPU accounting (GC and total).
func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measureRound runs one round from a collected heap, profiling its CPU
// when traced.
func measureRound(w spec, seed int64, traced bool) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := runtimeCPU()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return sample{}, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	t0, c0 := time.Now(), processCPU()
	r, err := runRound(w, seed)
	wall, cpuUsed := time.Since(t0).Seconds(), processCPU()-c0
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return sample{}, err
	}
	gc1, cpu1 := runtimeCPU()
	runtime.ReadMemStats(&m1)
	return sample{
		round: r, traced: traced, wall: wall, cpuUsed: cpuUsed,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		gcCPU:   gc1 - gc0, cpuAvail: cpu1 - cpu0,
		profile: prof.Bytes(),
	}, nil
}

// setupPasses is how many times an untraced run sets the workload up on
// its own before its rounds; setup_s is their median. One set-up takes
// as little as a tenth of a second, which one GC cycle or burst of page
// faults moves by half.
const setupPasses = 7

// measure runs whole rounds for o.seconds wall seconds — at least one,
// or one untraced and one traced — and reduces them to the reported
// metrics.
func measure(w spec, o options, out io.Writer) (result, error) {
	start := time.Now()
	var setups []float64
	for i := 0; i < setupPasses && !o.trace; i++ {
		runtime.GC()
		secs, err := setupOnly(w, o.seed)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, secs)
	}
	var samples []sample
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		s, err := measureRound(w, o.seed, traced)
		if err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", w.name, i+1, err)
		}
		samples = append(samples, s)
		pairDone := !o.trace || traced
		if pairDone && time.Since(start).Seconds()+s.wall > o.seconds {
			break
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	first := samples[0]
	for i, s := range samples {
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, p := range s.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "check failed: round %d: %s\n", i+1, p)
		}
		// The simulation is deterministic: every round of the same
		// inputs must move the same bytes in the same virtual time.
		if s.simBytes != first.simBytes || s.simSecs != first.simSecs || s.fileOps != first.fileOps || s.events != first.events {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "check failed: round %d simulated %d bytes in %v s over %d events, round 1 %d bytes in %v s over %d events\n",
				i+1, s.simBytes, s.simSecs, s.events, first.simBytes, first.simSecs, first.events)
		}
	}
	if o.trace {
		if err := layerMetrics(res.Metrics, w, o, samples, out); err != nil {
			return result{}, err
		}
	} else if err := endToEnd(res.Metrics, setups, samples); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s  seed %d  rounds %d  attempted %d  failed %d  correct %v\n",
		w.name, o.seed, len(samples), res.Attempted, res.Failed, res.Correct)
	if len(setups) > 0 {
		fmt.Fprintf(out, "  set-up passes: %.4g CPU s\n", setups)
	}
	for i, s := range samples {
		kind := "untraced"
		if s.traced {
			kind = "traced"
		}
		fmt.Fprintf(out, "  round %d (%s): %.3f s wall, %.3f CPU s; set-up %.3f CPU s, operations %.3f CPU s, %d file operations\n",
			i+1, kind, s.wall, s.cpuUsed, setupSeconds(s.round), opSeconds(s.round), s.fileOps)
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "  %-24s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// per collects one figure from each sample.
func per(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// sumCalls adds up CPU (or virtual) seconds of the named calls.
func sumCalls(r *round, name string, virtual bool) float64 {
	var t float64
	for _, c := range r.calls {
		if c.Name == name {
			if virtual {
				t += c.virtual()
			} else {
				t += c.CPU
			}
		}
	}
	return t
}

func setupSeconds(r *round) float64 {
	return sumCalls(r, "archive.new", false) + sumCalls(r, "workload.build", false)
}

func opSeconds(r *round) float64 {
	var t float64
	for _, c := range r.calls {
		if c.Op {
			t += c.CPU
		}
	}
	return t
}

func simMBs(r *round) float64 {
	if r.simSecs <= 0 {
		return 0
	}
	return float64(r.simBytes) / r.simSecs / 1e6
}

// endToEnd reports what a user of the simulator sees, as medians over
// the run's set-up passes and rounds.
func endToEnd(m map[string]metric, setups []float64, samples []sample) error {
	m["setup_s"] = metric{median(setups), "s"}
	m["files_per_s"] = metric{median(per(samples, func(s sample) float64 { return float64(s.fileOps) / opSeconds(s.round) })), "1/s"}
	m["sim_mbs"] = metric{simMBs(samples[0].round), "MB/s"}
	m["alloc_mb"] = metric{median(per(samples, func(s sample) float64 { return float64(s.alloc) / 1e6 })), "MB"}
	rss, err := peakRSSMB()
	m["peak_rss_mb"] = metric{rss, "MB"}
	return err
}

// hostCalls maps per-layer CPU-time metrics to the benchmark calls
// they sum.
var hostCalls = []struct{ metric, call string }{
	{"archive.new_s", "archive.new"},
	{"workload.build_s", "workload.build"},
	{"pftool.archive_s", "pftool.archive"},
	{"pftool.verify_s", "pftool.verify"},
	{"pftool.retrieve_s", "pftool.retrieve"},
	{"hsm.migrate_s", "hsm.migrate"},
	{"hsm.recall_s", "hsm.recall"},
	{"pfs.teardown_s", "pfs.teardown"},
	{"archive.audit_s", "archive.audit"},
}

var virtualCalls = []struct{ metric, call string }{
	{"pftool.sim_archive_s", "pftool.archive"},
	{"hsm.sim_migrate_s", "hsm.migrate"},
	{"hsm.sim_recall_s", "hsm.recall"},
	{"pftool.sim_verify_s", "pftool.verify"},
}

// layerMetrics reports per-layer figures from the traced rounds, the
// tracing overhead against the untraced ones, and writes the spans and
// CPU profile to o.out.
func layerMetrics(m map[string]metric, w spec, o options, samples []sample, out io.Writer) error {
	var traced, plain []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	for _, hc := range hostCalls {
		name := hc.call
		m[hc.metric] = metric{median(per(traced, func(s sample) float64 { return sumCalls(s.round, name, false) })), "s"}
	}
	for _, vc := range virtualCalls {
		m[vc.metric] = metric{sumCalls(traced[0].round, vc.call, true), "s"}
	}
	m["simtime.run_s"] = metric{median(per(traced, func(s sample) float64 { return s.runCPU })), "s"}
	m["simtime.events"] = metric{float64(traced[0].events), "count"}
	m["simtime.events_per_s"] = metric{median(per(traced, func(s sample) float64 { return float64(s.events) / s.runCPU })), "1/s"}
	snap := traced[0].snap
	m["fabric.flows"] = metric{snap.Total("fabric_flows_completed_total"), "count"}
	m["fabric.trunk_busy_s"] = metric{snap.Value("fabric_link_busy_seconds_total", "link", "trunk"), "s"}
	m["pftool.chunks"] = metric{snap.Total("pftool_chunks_copied_total"), "count"}
	m["tsm.transactions"] = metric{snap.Total("tsm_transactions_total"), "count"}
	m["tsm.stores"] = metric{snap.Total("tsm_stores_total"), "count"}
	m["tsm.recalls"] = metric{snap.Total("tsm_recalls_total"), "count"}
	m["tape.mounts"] = metric{snap.Total("tape_drive_mounts_total"), "count"}
	m["tape.seeks"] = metric{snap.Total("tape_drive_seeks_total"), "count"}
	m["tape.exchanges"] = metric{snap.Total("tape_robot_exchanges_total"), "count"}
	m["tape.transfer_s"] = metric{snap.Total("tape_drive_transfer_seconds_total"), "s"}
	m["hsm.migrated_files"] = metric{snap.Total("hsm_migrated_files_total"), "count"}
	m["hsm.recalled_files"] = metric{snap.Total("hsm_recalled_files_total"), "count"}
	m["gc.count"] = metric{median(per(traced, func(s sample) float64 { return float64(s.gcs) })), "count"}
	m["gc.pause_s"] = metric{median(per(traced, func(s sample) float64 { return s.gcPause })), "s"}
	m["gc.cpu_fraction"] = metric{median(per(traced, func(s sample) float64 { return s.gcCPU / s.cpuAvail })), "fraction"}
	m["alloc.mallocs"] = metric{median(per(traced, func(s sample) float64 { return float64(s.mallocs) })), "count"}

	var profiles [][]byte
	for _, s := range traced {
		profiles = append(profiles, s.profile)
	}
	shares, byPkg, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		m["cpu."+b] = metric{100 * shares[b], "%"}
	}
	tracedCPU := median(per(traced, func(s sample) float64 { return s.cpuUsed }))
	plainCPU := median(per(plain, func(s sample) float64 { return s.cpuUsed }))
	overhead := 100 * (tracedCPU/plainCPU - 1)
	m["trace.overhead_pct"] = metric{overhead, "%"}
	fmt.Fprintf(out, "tracing overhead: traced round %.3f CPU s, untraced %.3f CPU s (%+.1f%%, %d+%d rounds)\n",
		tracedCPU, plainCPU, overhead, len(traced), len(plain))
	fmt.Fprintf(out, "CPU by package (traced rounds):\n")
	for _, p := range byPkg {
		fmt.Fprintf(out, "  %-12s %6.2f%%\n", p.name, 100*p.share)
	}
	return writeTrace(w, o, traced, out)
}

// traceFile is the spans file of a traced run: one span per benchmark
// call, parent 0 standing for the round (its CPU time is run_cpu_s).
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Rounds   []traceRound `json:"rounds"`
}

type traceRound struct {
	RunCPU float64 `json:"run_cpu_s"`
	Spans  []call  `json:"spans"`
}

// writeTrace writes every traced round's spans as JSON and the first
// traced round's CPU profile, for `go tool pprof`.
func writeTrace(w spec, o options, traced []sample, out io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	tf := traceFile{Workload: w.name, Seed: o.seed}
	for _, s := range traced {
		tf.Rounds = append(tf.Rounds, traceRound{RunCPU: s.runCPU, Spans: s.calls})
	}
	spans, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	base := filepath.Join(o.out, w.name+"-seed"+strconv.FormatInt(o.seed, 10))
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", traced[0].profile, 0o644); err != nil {
		return fmt.Errorf("write CPU profile: %w", err)
	}
	fmt.Fprintf(out, "spans: %s.spans.json  CPU profile: %s.cpu.pprof\n", base, base)
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

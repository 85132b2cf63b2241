package main

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/hsm"
	"repro/internal/pfs"
	"repro/internal/pftool"
	"repro/internal/simtime"
	"repro/internal/synthetic"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// campaignSeed fixes the shape of the §5.2 campaign every workload draws
// its jobs from (job count, bytes, average file size, background share):
// archsim's default seed, at which the first four jobs at the
// 300k cap are the E19 slice of 1,017,950 files and 7.2 TB. The --seed
// argument draws everything inside a job — each file's size and content —
// so runs at different seeds do the same amount of work on different
// files.
const campaignSeed = 2010

// dirFanout matches archive.RunJob's tree layout.
const dirFanout = 2048

// trunkRate is the FTA trunk's capacity (two 10GigE links, Fig. 7): no
// job can archive faster.
const trunkRate = 1.87e9

// retrieveJob is the tape_cycle workload's pftool retrieve: a fixed
// 5,000-file, 5 GB job whose inputs do not depend on --seed. Every
// attempt to bring it back with PfcpRetrieve ends in the WatchDog fault
// documented in README.md, so it is counted as a failed operation.
var retrieveJob = workload.JobSpec{
	ID: 9001, Project: "retrieve", NumFiles: 5000, TotalBytes: 5e9, AvgFileSize: 1e6,
}

const retrieveSeed = 1

// spec describes one workload: which jobs it runs and what it does to
// each. Caps are per-job file caps handed to workload.Generate.
type spec struct {
	name string
	jobs int
	cap  int
	tape bool // archive, migrate, recall and verify each job (tape_cycle)
	// files, when positive, caps every job at that many files (a
	// reduced size for the self-test).
	files int
}

// workloads are the benchmark's workloads; README.md gives why each was
// chosen and which layers it loads.
var workloads = []spec{
	{name: "ingest", jobs: 4, cap: 300_000},
	{name: "campaign", jobs: 62, cap: 10_000},
	{name: "tape_cycle", jobs: 4, cap: 25_000, tape: true},
}

func lookup(name string) (spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// scaled shrinks a workload for the self-test: it runs at most jobs
// jobs of at most files files each. A shrunk job keeps its average file
// size, so files take the same paths through pftool as at full size.
func (w spec) scaled(jobs, files int) spec {
	w.jobs, w.files = min(w.jobs, jobs), files
	return w
}

// plan generates the workload's jobs from the fixed campaign shape.
func (w spec) plan() []workload.JobSpec {
	cfg := workload.PaperCampaign(campaignSeed)
	cfg.Jobs, cfg.MaxSimFiles = w.jobs, w.cap
	jobs := workload.Generate(cfg)
	for i := range jobs {
		if w.files > 0 && jobs[i].NumFiles > w.files {
			jobs[i].NumFiles = w.files
			jobs[i].TotalBytes = jobs[i].AvgFileSize * int64(w.files)
		}
	}
	return jobs
}

// call is one timed benchmark call: a span in the trace.
type call struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Start  float64 `json:"start_s"` // wall seconds since the round began
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"`    // CPU seconds the process used in the call
	VStart float64 `json:"vstart_s"` // virtual seconds on the round's clock
	VEnd   float64 `json:"vend_s"`
	Op     bool    `json:"op"` // an archive operation, counted as attempted
	Err    string  `json:"err,omitempty"`

	cpu0 float64
}

func (c call) virtual() float64 { return c.VEnd - c.VStart }

// round is everything one pass over a workload produced.
type round struct {
	calls     []call
	runCPU    float64 // CPU seconds inside simtime.Clock.RunFor
	events    uint64
	snap      *telemetry.Snapshot
	fileOps   int     // completed file operations
	simBytes  int64   // bytes moved by completed operations
	simSecs   float64 // their virtual seconds
	attempted int
	failed    int
	problems  []string // failed correctness checks
}

// recorder times calls made from inside the round's driving actor.
type recorder struct {
	clock *simtime.Clock
	t0    time.Time
	r     *round
	ids   int
}

// begin opens a span; end closes and records it.
func (rec *recorder) begin(name string, parent, job int) call {
	rec.ids++
	return call{ID: rec.ids, Name: name, Parent: parent, Job: job,
		Start: time.Since(rec.t0).Seconds(), VStart: rec.clock.Now().Seconds(), cpu0: processCPU()}
}

func (rec *recorder) end(c call, err error) {
	c.End, c.VEnd, c.CPU = time.Since(rec.t0).Seconds(), rec.clock.Now().Seconds(), processCPU()-c.cpu0
	if err != nil {
		c.Err = err.Error()
	}
	rec.r.calls = append(rec.r.calls, c)
}

func (rec *recorder) span(name string, parent, job int, fn func() error) error {
	c := rec.begin(name, parent, job)
	err := fn()
	rec.end(c, err)
	return err
}

// op is a span around one archive operation, counted as attempted.
func (rec *recorder) op(name string, parent, job int, fn func() error) error {
	rec.r.attempted++
	c := rec.begin(name, parent, job)
	c.Op = true
	err := fn()
	rec.end(c, err)
	return err
}

// job runs one job's calls under a span of its own.
func (rec *recorder) job(s workload.JobSpec, fn func(parent int) error) error {
	c := rec.begin("job", 0, s.ID)
	err := fn(c.ID)
	rec.end(c, err)
	return err
}

func (r *round) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// completed records an operation that finished: files and bytes it
// moved over the virtual seconds it took.
func (r *round) completed(files int, bytes int64, virtual float64) {
	r.fileOps += files
	r.simBytes += bytes
	r.simSecs += virtual
}

func (r *round) last() call { return r.calls[len(r.calls)-1] }

func srcRoot(id int) string { return fmt.Sprintf("/campaign/job%04d", id) }

func dstRoot(s workload.JobSpec) string { return fmt.Sprintf("/archive/%s/job%04d", s.Project, s.ID) }

// filePath reproduces workload.BuildTree's naming for file i.
func filePath(root string, i int) string {
	return fmt.Sprintf("%s/d%04d/f%06d", root, i/dirFanout, i)
}

// expected is what the benchmark itself computes a job must archive,
// independently of anything the archive reports.
type expected struct {
	sizes []int64
	bytes int64
}

func expect(s workload.JobSpec, seed int64) expected {
	e := expected{sizes: workload.FileSizes(s, seed)}
	for _, n := range e.sizes {
		e.bytes += n
	}
	return e
}

// counters reads the registry series the checks compare against.
type counters struct {
	pfcpFiles, pfcpBytes float64
	tsmStored            float64
	tapeWritten          float64
}

func readCounters(tel *telemetry.Registry) counters {
	s := tel.Snapshot()
	return counters{
		pfcpFiles:   s.Value("pftool_files_copied_total", "op", "pfcp"),
		pfcpBytes:   s.Value("pftool_bytes_copied_total", "op", "pfcp"),
		tsmStored:   s.Value("tsm_bytes_stored_total"),
		tapeWritten: s.Total("tape_drive_bytes_written_total"),
	}
}

// runRound builds a fresh deployment and drives one pass of the
// workload through the archive's public API.
func runRound(w spec, seed int64) (*round, error) {
	r := &round{}
	clock := simtime.NewClock()
	rec := &recorder{clock: clock, t0: time.Now(), r: r}
	c := rec.begin("archive.new", 0, 0)
	sys := archive.New(clock, archive.DefaultOptions())
	rec.end(c, nil)
	tel := telemetry.Of(clock)
	jobs := w.plan()
	var fatal error
	clock.Go(func() {
		if w.tape {
			fatal = tapeCycle(rec, sys, tel, jobs, seed)
		} else {
			fatal = ingest(rec, sys, tel, jobs, seed)
		}
	})
	cpu0 := processCPU()
	clock.RunFor()
	r.runCPU = processCPU() - cpu0
	r.events = clock.EventsProcessed()
	r.snap = tel.Snapshot()
	if fatal != nil {
		return nil, fatal
	}
	return r, nil
}

// processCPU is the CPU time, user and system, the process has used: the
// host cost of the simulation, on every thread, without the time the
// host's scheduler or hypervisor ran something else.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupOnly times one set-up of the workload on its own: archive.New
// and every job's BuildTree (the retrieve job's too), with no archive
// operation between them. Each tree is removed, untimed, once built, so
// the namespace never holds more than one job and the set-up passes do
// not set the run's peak resident set.
func setupOnly(w spec, seed int64) (float64, error) {
	clock := simtime.NewClock()
	cpu0 := processCPU()
	sys := archive.New(clock, archive.DefaultOptions())
	secs := processCPU() - cpu0
	type input struct {
		spec workload.JobSpec
		seed int64
	}
	var inputs []input
	if w.tape {
		inputs = append(inputs, input{retrieveJob, retrieveSeed})
	}
	for _, s := range w.plan() {
		inputs = append(inputs, input{s, seed})
	}
	var err error
	clock.Go(func() {
		for _, in := range inputs {
			cpu0 := processCPU()
			_, err = workload.BuildTree(sys.Scratch, srcRoot(in.spec.ID), in.spec, in.seed, dirFanout)
			secs += processCPU() - cpu0
			if err == nil {
				err = sys.Scratch.RemoveAll(srcRoot(in.spec.ID))
			}
			if err != nil {
				return
			}
		}
	})
	clock.RunFor()
	return secs, err
}

// build materializes a job on scratch; it is set-up, not timed work.
func build(rec *recorder, sys *archive.System, s workload.JobSpec, seed int64, parent int) error {
	return rec.span("workload.build", parent, s.ID, func() error {
		_, err := workload.BuildTree(sys.Scratch, srcRoot(s.ID), s, seed, dirFanout)
		return err
	})
}

// archiveJob archives one built job with background trunk sharing and
// checks the outcome against the benchmark's own expectation.
func archiveJob(rec *recorder, sys *archive.System, tel *telemetry.Registry, s workload.JobSpec, want expected, parent int) error {
	r := rec.r
	stop := false
	workload.Noise(sys.Clock, sys.Cluster.Trunk(), s.Background, &stop)
	before := readCounters(tel)
	var res pftool.Result
	err := rec.op("pftool.archive", parent, s.ID, func() (err error) {
		res, err = sys.Pfcp(srcRoot(s.ID), dstRoot(s), pftool.DefaultTunables())
		return err
	})
	stop = true
	if err != nil {
		return fmt.Errorf("job %d: archive: %w", s.ID, err)
	}
	after := readCounters(tel)
	// PFTool's own report (Finished-Started, what its end-of-job
	// summary prints) is the archive's data rate; the call itself
	// returns only at the WatchDog's next tick (see README.md).
	v := pftoolElapsed(r, s.ID, "archive", res)
	r.completed(res.FilesCopied, res.BytesCopied, v)
	r.check(res.FilesCopied == len(want.sizes) && res.BytesCopied == want.bytes,
		"job %d: archived %d files / %d bytes, generator made %d / %d", s.ID, res.FilesCopied, res.BytesCopied, len(want.sizes), want.bytes)
	r.check(after.pfcpFiles-before.pfcpFiles == float64(res.FilesCopied) && after.pfcpBytes-before.pfcpBytes == float64(res.BytesCopied),
		"job %d: registry counted %v files / %v bytes, pftool reported %d / %d", s.ID,
		after.pfcpFiles-before.pfcpFiles, after.pfcpBytes-before.pfcpBytes, res.FilesCopied, res.BytesCopied)
	r.check(v > 0 && float64(res.BytesCopied)/v <= trunkRate,
		"job %d: %d bytes in %.3f virtual s exceeds the %.2f GB/s trunk", s.ID, res.BytesCopied, v, trunkRate/1e9)
	return nil
}

// pftoolElapsed returns the virtual seconds pftool reports for the call
// just recorded and checks them against the call's span as the benchmark
// timed it from outside: pftool's run cannot outlast the call that made it.
func pftoolElapsed(r *round, job int, what string, res pftool.Result) float64 {
	v, span := res.Elapsed().Seconds(), r.last().virtual()
	r.check(v > 0 && v <= span, "job %d: pftool reports the %s took %.3f virtual s, the call lasted %.3f", job, what, v, span)
	return v
}

func teardown(rec *recorder, sys *archive.System, s workload.JobSpec, parent int) error {
	return rec.op("pfs.teardown", parent, s.ID, func() error {
		if err := sys.Scratch.RemoveAll(srcRoot(s.ID)); err != nil {
			return err
		}
		return sys.Archive.RemoveAll(dstRoot(s))
	})
}

// ingest archives each job with Pfcp and tears it down (ingest and
// campaign differ only in their job lists).
func ingest(rec *recorder, sys *archive.System, tel *telemetry.Registry, jobs []workload.JobSpec, seed int64) error {
	for _, s := range jobs {
		if err := rec.job(s, func(job int) error {
			want := expect(s, seed)
			if err := build(rec, sys, s, seed, job); err != nil {
				return err
			}
			if err := archiveJob(rec, sys, tel, s, want, job); err != nil {
				return err
			}
			return teardown(rec, sys, s, job)
		}); err != nil {
			return err
		}
	}
	return nil
}

// errWatchdog is how pftool reports the retrieve fault.
const errWatchdog = "watchdog killed a stalled run"

// tapeCycle runs the fixed retrieve job, then archives, migrates,
// recalls and verifies each campaign job, audits the archive, and tears
// everything down.
func tapeCycle(rec *recorder, sys *archive.System, tel *telemetry.Registry, jobs []workload.JobSpec, seed int64) error {
	if err := rec.job(retrieveJob, func(job int) error { return retrieve(rec, sys, tel, job) }); err != nil {
		return err
	}
	for _, s := range jobs {
		if err := rec.job(s, func(job int) error { return cycleJob(rec, sys, tel, s, seed, job) }); err != nil {
			return err
		}
	}
	var audit archive.AuditResult
	if err := rec.op("archive.audit", 0, 0, func() (err error) {
		audit, err = sys.Audit()
		return err
	}); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	rec.r.check(audit.Clean(), "%s", audit)
	for _, s := range append([]workload.JobSpec{retrieveJob}, jobs...) {
		if err := teardown(rec, sys, s, 0); err != nil {
			return err
		}
	}
	return nil
}

// cycleJob archives one job, migrates it to tape, recalls it in tape
// order and verifies the archive copy against scratch.
func cycleJob(rec *recorder, sys *archive.System, tel *telemetry.Registry, s workload.JobSpec, seed int64, job int) error {
	r := rec.r
	want := expect(s, seed)
	if err := build(rec, sys, s, seed, job); err != nil {
		return err
	}
	if err := archiveJob(rec, sys, tel, s, want, job); err != nil {
		return err
	}
	if err := migrate(rec, sys, tel, s, want, job); err != nil {
		return err
	}
	var rres hsm.RecallResult
	paths := make([]string, len(want.sizes))
	for i := range paths {
		paths[i] = filePath(dstRoot(s), i)
	}
	if err := rec.op("hsm.recall", job, s.ID, func() (err error) {
		rres, err = sys.HSM.Recall(paths, hsm.RecallOrdered)
		return err
	}); err != nil {
		return fmt.Errorf("job %d: recall: %w", s.ID, err)
	}
	r.completed(rres.Files, rres.Bytes, r.last().virtual())
	r.check(rres.Files == len(want.sizes) && rres.Bytes == want.bytes && len(rres.NotFound) == 0,
		"job %d: recalled %d files / %d bytes (%d not found), archived %d / %d", s.ID,
		rres.Files, rres.Bytes, len(rres.NotFound), len(want.sizes), want.bytes)
	if msg := sampleDigests(sys.Archive, dstRoot(s), s, seed, want); msg != "" {
		r.check(false, "job %d: %s", s.ID, msg)
	}
	var vres pftool.Result
	if err := rec.op("pftool.verify", job, s.ID, func() (err error) {
		vres, err = sys.Pfcm(srcRoot(s.ID), dstRoot(s), pftool.DefaultTunables())
		return err
	}); err != nil {
		return fmt.Errorf("job %d: verify: %w", s.ID, err)
	}
	r.completed(vres.Matched, want.bytes, pftoolElapsed(r, s.ID, "verify", vres))
	r.check(vres.Matched == len(want.sizes) && vres.Mismatched == 0 && vres.Missing == 0,
		"job %d: verify matched %d of %d, %d mismatched, %d missing", s.ID, vres.Matched, len(want.sizes), vres.Mismatched, vres.Missing)
	return nil
}

// migrate sends a job's archive copy to tape and checks that every byte
// archived was stored by TSM and written to tape exactly once.
func migrate(rec *recorder, sys *archive.System, tel *telemetry.Registry, s workload.JobSpec, want expected, parent int) error {
	r := rec.r
	before := readCounters(tel)
	var mres hsm.MigrateResult
	if err := rec.op("hsm.migrate", parent, s.ID, func() (err error) {
		mres, err = sys.MigrateTree(dstRoot(s), hsm.MigrateOptions{Balanced: true})
		return err
	}); err != nil {
		return fmt.Errorf("job %d: migrate: %w", s.ID, err)
	}
	after := readCounters(tel)
	r.completed(mres.Files, mres.Bytes, r.last().virtual())
	r.check(mres.Files == len(want.sizes) && mres.Bytes == want.bytes,
		"job %d: migrated %d files / %d bytes, archived %d / %d", s.ID, mres.Files, mres.Bytes, len(want.sizes), want.bytes)
	r.check(after.tsmStored-before.tsmStored == float64(want.bytes) && after.tapeWritten-before.tapeWritten == float64(want.bytes),
		"job %d: TSM stored %v and tape wrote %v bytes, archived %d", s.ID,
		after.tsmStored-before.tsmStored, after.tapeWritten-before.tapeWritten, want.bytes)
	return nil
}

// retrieve archives and migrates the fixed retrieve job, then attempts
// to bring it back to scratch with PfcpRetrieve. The attempt fails with
// the WatchDog fault; any other outcome is reported.
func retrieve(rec *recorder, sys *archive.System, tel *telemetry.Registry, job int) error {
	r := rec.r
	s := retrieveJob
	want := expect(s, retrieveSeed)
	if err := build(rec, sys, s, retrieveSeed, job); err != nil {
		return err
	}
	if err := archiveJob(rec, sys, tel, s, want, job); err != nil {
		return err
	}
	if err := migrate(rec, sys, tel, s, want, job); err != nil {
		return err
	}
	if err := sys.Scratch.RemoveAll(srcRoot(s.ID)); err != nil {
		return err
	}
	var res pftool.Result
	err := rec.op("pftool.retrieve", job, s.ID, func() (err error) {
		res, err = sys.PfcpRetrieve(dstRoot(s), srcRoot(s.ID), pftool.DefaultTunables())
		return err
	})
	switch {
	case err != nil && strings.Contains(err.Error(), errWatchdog):
		r.failed++
	case err != nil:
		return fmt.Errorf("retrieve: %w", err)
	default:
		r.completed(res.FilesCopied, res.BytesCopied, pftoolElapsed(r, s.ID, "retrieve", res))
		r.check(res.FilesCopied == len(want.sizes) && res.BytesCopied == want.bytes,
			"retrieve: copied %d files / %d bytes, archived %d / %d", res.FilesCopied, res.BytesCopied, len(want.sizes), want.bytes)
	}
	return nil
}

// sampleDigests reads back a spread of a job's files and compares each
// with the content the generator derives for it; it returns "" when all
// match.
func sampleDigests(fs *pfs.FS, root string, s workload.JobSpec, seed int64, want expected) string {
	n := len(want.sizes)
	for k := 0; k < 8 && k < n; k++ {
		i := k * (n - 1) / 7
		if n < 8 {
			i = k
		}
		got, err := fs.ReadContent(filePath(root, i))
		if err != nil {
			return fmt.Sprintf("read back file %d: %v", i, err)
		}
		gen := synthetic.NewUniform(uint64(seed)^uint64(s.ID)<<32^uint64(i), want.sizes[i])
		if got.Digest() != gen.Digest() {
			return fmt.Sprintf("file %d digest %x, generator's %x", i, got.Digest(), gen.Digest())
		}
	}
	return ""
}

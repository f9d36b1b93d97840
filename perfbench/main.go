// Command perfbench is the repository benchmark: four named workloads
// (sim-city, sim-year, lns-ingest, figs-quick), each run from a seed,
// checked for correct output, and reported as one JSON line of
// end-to-end metrics (-trace 0) or of per-layer metrics (-trace 1).
// README.md in this directory explains the workloads and metrics.
//
// The harness never measures inside its own process: every measured
// repetition is a fresh child process (this binary in worker mode), so
// construction caches, warm pools and an earlier repetition's heap
// cannot hide set-up cost or peak memory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEndUnits are the untraced run's metrics, each the median over
// the run's repetitions: cold set-up time, the whole workload's wall
// time, the CPU time of the process doing the work (the daemon's for
// lns-ingest) and its peak resident memory.
var endToEndUnits = map[string]string{"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

// A run measures at least minSetupSamples cold set-ups; full
// repetitions count, set-up-only processes make up the rest, and while
// the budget lasts they go on up to maxSetupSamples, since a set-up of
// a few tens of milliseconds is noisy.
const (
	minSetupSamples = 5
	maxSetupSamples = 15
)

// setupShare is the share of a run's budget kept for set-up-only
// processes after the full repetitions.
const setupShare = 0.1

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "record" {
		if err := recordMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench record:", err)
			os.Exit(1)
		}
		return
	}
	code, err := harnessMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type harnessArgs struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

func parseHarnessArgs(args []string) (harnessArgs, error) {
	var a harnessArgs
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&a.root, "root", ".", "repository root (holds go.mod and .bench_build/)")
	fs.StringVar(&a.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&a.seed, "seed", 1, "workload seed; inputs are generated from it")
	fs.Float64Var(&a.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&a.trace, "trace", 0, "0: end-to-end metrics, 1: traced run with the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return a, err
	}
	if _, ok := workloads[a.workload]; !ok {
		return a, fmt.Errorf("unknown workload %q (want one of %s)", a.workload, strings.Join(workloadNames(), ", "))
	}
	if a.trace != 0 && a.trace != 1 {
		return a, fmt.Errorf("-trace must be 0 or 1, got %d", a.trace)
	}
	if a.seconds <= 0 {
		return a, fmt.Errorf("-seconds must be positive")
	}
	return a, nil
}

// metric is one reported value with its unit, as the result line
// prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func harnessMain(args []string) (int, error) {
	a, err := parseHarnessArgs(args)
	if err != nil {
		return 0, err
	}
	root, err := filepath.Abs(a.root)
	if err != nil {
		return 0, err
	}
	a.root = root
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	goldens, err := loadGoldens(filepath.Join(root, "perfbench", "digests.json"))
	if err != nil {
		return 0, err
	}
	d := &harness{args: a, self: self, goldens: goldens, wl: workloads[a.workload]}

	var res result
	var report map[string]any
	if a.trace == 0 {
		res, report, err = d.measure()
	} else {
		res, report, err = d.traced()
	}
	if err != nil {
		return 0, err
	}
	report["provenance"] = provenance(a)
	line, err := json.Marshal(report)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

type harness struct {
	args    harnessArgs
	self    string
	goldens *goldenFile
	wl      workload
	checks  []string // failed output checks, for the report
}

// spawn runs one repetition in a fresh worker process and returns its
// result, with peak RSS and CPU filled from the child's rusage unless
// the worker reported another process's (the daemon's).
func (d *harness) spawn(mode string, traced bool) (*repResult, error) {
	args := []string{"worker", "-workload", d.args.workload, "-seed", fmt.Sprint(d.args.seed), "-mode", mode,
		"-root", d.args.root}
	if traced {
		args = append(args, "-profile", d.profilePath())
	}
	cmd := exec.Command(d.self, args...)
	cmd.Stderr = os.Stderr
	cmd.Dir = d.args.root
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("worker %s %s: %w", d.args.workload, mode, err)
	}
	var r repResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("worker %s %s: bad result: %w", d.args.workload, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && r.PeakRSSMB == 0 {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024
		r.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return &r, nil
}

func (d *harness) profilePath() string {
	return filepath.Join(d.args.root, ".bench_build", "prof", d.args.workload+".cpu.pprof")
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// measure is the untraced run: full repetitions until the time budget
// is spent (at least one), then set-up-only processes until enough
// cold set-ups were timed.
func (d *harness) measure() (result, map[string]any, error) {
	start := time.Now()
	budget := time.Duration(d.args.seconds * float64(time.Second))
	var reps []*repResult
	var setups []float64
	attempted, failed := 0, 0
	// A worker that errors is a failed operation, not the end of the run.
	spawn := func(mode string) *repResult {
		r, err := d.spawn(mode, false)
		attempted++
		if err != nil {
			failed++
			d.checks = append(d.checks, err.Error())
			return nil
		}
		// A workload whose full repetition has no set-up of its own
		// (figs-quick) times set-up in set-up-only processes.
		if r.SetupS > 0 {
			setups = append(setups, r.SetupS)
		}
		attempted += r.Ops
		failed += r.Failed
		return r
	}
	fullBudget := time.Duration((1 - setupShare) * float64(budget))
	var longest time.Duration
	for tries := 0; ; tries++ {
		t0 := time.Now()
		if r := spawn("full"); r != nil {
			reps = append(reps, r)
		}
		longest = max(longest, time.Since(t0))
		if time.Since(start)+longest > fullBudget && (len(reps) > 0 || tries >= 2) {
			break
		}
	}
	if len(reps) == 0 {
		return result{}, nil, fmt.Errorf("every repetition failed: %s", strings.Join(d.checks, "; "))
	}
	for tries := 0; tries < 2*maxSetupSamples; tries++ {
		if len(setups) >= maxSetupSamples || len(setups) >= minSetupSamples && time.Since(start) > budget {
			break
		}
		spawn("setup")
	}
	if len(setups) == 0 {
		return result{}, nil, fmt.Errorf("every set-up failed: %s", strings.Join(d.checks, "; "))
	}
	failed += d.checkReps(reps)

	pick := func(f func(*repResult) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	res := result{
		Correct:   len(d.checks) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), endToEndUnits["setup_s"]},
			"wall_s":      {median(pick(func(r *repResult) float64 { return r.WallS })), endToEndUnits["wall_s"]},
			"cpu_s":       {median(pick(func(r *repResult) float64 { return r.CPUS })), endToEndUnits["cpu_s"]},
			"peak_rss_mb": {median(pick(func(r *repResult) float64 { return r.PeakRSSMB })), endToEndUnits["peak_rss_mb"]},
		},
	}
	// The workload-specific numbers of the benchmark doc, each the
	// median over repetitions, for the human-readable report line.
	specific := map[string]float64{}
	for name := range reps[0].Specific {
		specific[name] = median(pick(func(r *repResult) float64 { return r.Specific[name] }))
	}
	specific["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	report := map[string]any{
		"workload":       d.args.workload,
		"repetitions":    len(reps),
		"setup_samples":  len(setups),
		"workload_stats": specific,
		"failed_checks":  d.checks,
	}
	// An open-loop workload's latencies are valid only if its generator
	// kept to its schedule.
	if late, ok := specific["loadgen.late_p99_ms"]; ok {
		report["latency_valid"] = late <= maxGeneratorLateMs
		if late > maxGeneratorLateMs {
			fmt.Fprintf(os.Stderr, "perfbench: %s generator ran %.2f ms late at p99 (limit %.1f ms): "+
				"its latencies are not valid measurements\n", d.args.workload, late, maxGeneratorLateMs)
		}
	}
	return res, report, nil
}

// checkReps compares every repetition's output digest with the others
// (each is a fresh process, so this is a cross-process determinism
// check) and with the recorded golden digest for this seed, if any.
// It returns how many repetitions failed a check.
func (d *harness) checkReps(reps []*repResult) int {
	want, err := d.expectedDigest()
	if err != nil {
		d.checks = append(d.checks, "reference output: "+err.Error())
		return len(reps)
	}
	source := fmt.Sprintf("the reference for seed %d", d.args.seed)
	if want == "" {
		want, source = reps[0].Digest, "repetition 0"
	}
	failed := 0
	for i, r := range reps {
		// Errored operations are in the report but were counted by the
		// worker already.
		for _, e := range r.Errors {
			d.checks = append(d.checks, fmt.Sprintf("repetition %d: %s", i, e))
		}
		for _, c := range r.Checks {
			d.checks = append(d.checks, fmt.Sprintf("repetition %d: %s", i, c))
		}
		if r.Digest != want {
			d.checks = append(d.checks, fmt.Sprintf("repetition %d: output digest %s, want %s (%s)", i, r.Digest, want, source))
		}
		if len(r.Checks) > 0 || r.Digest != want {
			failed++
		}
	}
	return failed
}

// expectedDigest is the reference digest for this workload and seed:
// the recorded golden for the simulator workloads (empty when the seed
// has none), and a library replay of the same traffic for lns-ingest.
func (d *harness) expectedDigest() (string, error) {
	if d.wl.reference != nil {
		return d.wl.reference(d.args.seed)
	}
	return d.goldens.Digests[d.args.workload][fmt.Sprint(d.args.seed)], nil
}

// traced is the per-layer run: one untraced repetition as the overhead
// baseline and one repetition under the CPU profiler, whose samples are
// bucketed into layers.
func (d *harness) traced() (result, map[string]any, error) {
	base, err := d.spawn("full", false)
	if err != nil {
		return result{}, nil, err
	}
	tr, err := d.spawn("full", true)
	if err != nil {
		return result{}, nil, err
	}
	reps := []*repResult{base, tr}
	failed := d.checkReps(reps)
	attempted := base.Ops + tr.Ops + len(reps)
	failed += base.Failed + tr.Failed

	profile := d.profilePath()
	raw, err := exec.Command("go", "tool", "pprof", "-raw", profile).Output()
	if err != nil {
		return result{}, nil, fmt.Errorf("go tool pprof -raw %s: %w", profile, err)
	}
	prof, err := parseRawProfile(string(raw))
	if err != nil {
		return result{}, nil, err
	}
	ledger := bucketProfile(prof)

	m := map[string]metric{}
	for _, pm := range perLayerMetrics {
		m[pm.name] = metric{0, pm.unit}
	}
	set := func(name string, v float64) error {
		unit, ok := perLayerUnits[name]
		if !ok {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
		m[name] = metric{v, unit}
		return nil
	}
	// Self times from the traced repetition's profile, counts from the
	// program, timings from the untraced baseline.
	values := ledger.metrics()
	for name, v := range tr.Counts {
		values[name] = v
	}
	for name, v := range base.Specific {
		if _, ok := perLayerUnits[name]; ok {
			values[name] = v
		}
	}
	if up := values["sim.medium.uplinks"]; up > 0 {
		values["sim.medium.ns_per_uplink"] = values["sim.medium.self_s"] / up * 1e9
	}
	// An open-loop stream lasts as long as its schedule whatever the
	// server does, so on lns-ingest the overhead is read from the
	// daemon's own ingest time instead of wall time.
	values["obs.overhead_frac"] = tr.WallS/base.WallS - 1
	if busy := base.Counts["lns.ingest_busy_s"]; busy > 0 {
		values["obs.overhead_frac"] = tr.Counts["lns.ingest_busy_s"]/busy - 1
	}
	for name, v := range values {
		if err := set(name, v); err != nil {
			return result{}, nil, err
		}
	}
	res := result{
		Correct:   len(d.checks) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}
	report := map[string]any{
		"workload":        d.args.workload,
		"profile_samples": ledger.samples,
		"covered_frac":    ledger.coveredFrac(),
		"layers_s":        ledger.self,
		"failed_checks":   d.checks,
	}
	return res, report, nil
}

// provenance identifies what produced a result. The checkout the
// benchmark runs in need not be a git repository, so the source is
// also identified by a hash over every Go file and go.mod.
func provenance(a harnessArgs) map[string]any {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(a.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", a.root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	src, err := sourceHash(a.root)
	if err != nil {
		src = "error: " + err.Error()
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": src,
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"seed":          a.seed,
		"workload":      a.workload,
		"trace":         a.trace,
		"seconds":       a.seconds,
	}
}

func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := de.Name()
		if de.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !de.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := newDigest()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		h.add(rel, data)
	}
	return h.sum(), nil
}

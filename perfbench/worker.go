package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/runner"
)

// repResult is what one worker process reports for one repetition.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// CPUS and PeakRSSMB are filled by the worker only when the work ran
	// in another process (the lns-ingest daemon); otherwise the harness
	// takes them from the worker's own rusage.
	CPUS      float64 `json:"cpu_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// Ops counts the operations the repetition attempted (runs, HTTP
	// requests); Failed those that errored or were refused, and Errors
	// says what went wrong with them (already counted in Failed).
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
	// Digest identifies the repetition's output; Checks lists the output
	// checks it failed, which count as one more failed operation.
	Digest string   `json:"digest,omitempty"`
	Checks []string `json:"checks,omitempty"`
	// Specific holds the workload's own timings and rates (node-days/s,
	// ingest latency percentiles, runner spans): the report line's
	// numbers, and the per-layer timings of a traced run's baseline.
	Specific map[string]float64 `json:"specific,omitempty"`
	// Counts holds per-layer counts read from the program (obs counters,
	// decision-table hits, runtime metrics); filled on traced runs.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// workerEnv is one repetition's context.
type workerEnv struct {
	seed   uint64
	root   string
	traced bool
	ctx    context.Context
}

// workload is one named traffic mix (BENCHMARK.json says why each
// exists). full runs a whole repetition; setup only the cold set-up.
// reference, when set, computes the expected output digest in the
// harness (otherwise the recorded golden digests apply).
type workload struct {
	name      string
	full      func(w *workerEnv) (*repResult, error)
	setup     func(w *workerEnv) (*repResult, error)
	reference func(seed uint64) (string, error)
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputSeed derives the seed a workload's generated inputs use from the
// benchmark seed, so distinct workloads draw distinct streams.
func inputSeed(workload string, seed uint64) uint64 {
	return runner.DeriveSeed(seed, "perfbench/"+workload, 1)
}

func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "benchmark seed")
	mode := fs.String("mode", "full", "full or setup")
	root := fs.String("root", ".", "repository root")
	profile := fs.String("profile", "", "write a CPU profile of the repetition here (traced run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	env := &workerEnv{seed: *seed, root: *root, traced: *profile != "", ctx: context.Background()}
	if *profile != "" {
		if err := os.MkdirAll(filepath.Dir(*profile), 0o755); err != nil {
			return err
		}
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench worker: close profile:", err)
			}
		}()
	}
	var r *repResult
	var err error
	switch *mode {
	case "full":
		r, err = wl.full(env)
	case "setup":
		r, err = wl.setup(env)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}
	if env.traced {
		if r.Counts == nil {
			r.Counts = map[string]float64{}
		}
		for k, v := range runtimeCounts() {
			r.Counts[k] = v
		}
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// phase runs fn under a pprof label naming the benchmark phase, so a
// traced run's samples split into set-up, run and check; goroutines fn
// starts inherit the label.
func phase(ctx context.Context, name string, fn func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels("phase", name), fn)
}

// timed runs fn under a phase label and returns its wall seconds.
func timed(ctx context.Context, name string, fn func(ctx context.Context)) float64 {
	start := time.Now()
	phase(ctx, name, fn)
	return time.Since(start).Seconds()
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// runtimeCounts reads the Go runtime's own accounting for the process:
// the share of CPU the garbage collector used and the bytes allocated.
func runtimeCounts() map[string]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	out := map[string]float64{}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		if total := samples[1].Value.Float64(); total > 0 {
			out["runtime.gc_cpu_frac"] = samples[0].Value.Float64() / total
		}
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		out["runtime.alloc_mb"] = float64(samples[2].Value.Uint64()) / (1 << 20)
	}
	return out
}

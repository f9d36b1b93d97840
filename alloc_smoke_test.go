package repro_test

// Allocation smoke gate for the struct-of-arrays node core (PR 7).
// BenchmarkSweep1000Nodes allocs/op is the machine-independent half of
// the single-run throughput story: the PR 6 baseline
// (BENCH_2026-08-08.json) recorded 108,632 allocs for a 1000-node
// simulated day, and the SoA core plus idle-span skipping must keep
// that at least halved. A plain short-mode test pins the ratio so the
// regression fails in `go test ./...` directly, without the bench
// harness or a same-machine baseline.

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// pr6SweepAllocs is BenchmarkSweep1000Nodes allocs/op from the PR 6
// baseline record, BENCH_2026-08-08.json.
const pr6SweepAllocs = 108_632

func TestSweep1000NodesAllocsHalvedVsPR6(t *testing.T) {
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = 1000
	cfg.Duration = simtime.Day

	run := func() {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm pass, mirroring the benchmark's warmSim: the first run in a
	// process pays one-off costs (the shared solar year trace, heap
	// growth) the committed baseline amortizes away.
	run()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	// ≥ 2x drop vs PR 6, with the small slack absorbing background
	// runtime allocations that ReadMemStats deltas cannot exclude.
	limit := uint64(pr6SweepAllocs / 2)
	if allocs >= limit {
		t.Fatalf("1000-node day = %d allocs, want < %d (2x below the PR 6 figure of %d)",
			allocs, limit, pr6SweepAllocs)
	}
	t.Logf("1000-node day: %d allocs (PR 6 baseline %d, %.2fx reduction)",
		allocs, pr6SweepAllocs, float64(pr6SweepAllocs)/float64(allocs))
}

// pr9YearAllocs is BenchmarkSimulatorYear allocs/op from the PR 9
// baseline record, BENCH_2026-08-08.json.
const pr9YearAllocs = 5_607

// TestSimulatorYearAllocsNearPR9 pins the year-scale allocation count:
// a 100-node simulated year must stay within 25% of the PR 9 figure.
// The slack covers the chunked calendar-ring slab (carving 32KB chunks
// per first-touched slot region instead of one eager 4MB slab adds
// ~128 small allocations on runs that touch every ring slot, in
// exchange for a ~4MB footprint cut on short runs) plus background
// runtime allocations the ReadMemStats delta cannot exclude.
func TestSimulatorYearAllocsNearPR9(t *testing.T) {
	if testing.Short() {
		t.Skip("year-scale run; covered by the non-short CI pass")
	}
	cfg := config.Default().WithSeed(9)
	cfg.Nodes = 100
	cfg.Duration = 365 * simtime.Day

	run := func() {
		s, err := sim.New(cfg, sim.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pass, as above

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	limit := uint64(pr9YearAllocs * 5 / 4)
	if allocs >= limit {
		t.Fatalf("100-node year = %d allocs, want < %d (within 25%% of the PR 9 figure of %d)",
			allocs, limit, pr9YearAllocs)
	}
	t.Logf("100-node year: %d allocs (PR 9 baseline %d)", allocs, pr9YearAllocs)
}

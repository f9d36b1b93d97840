package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// simCity is a city deployment: more than primeCacheMax (4096) nodes,
// so every node's forecast priming is paid at construction as a user
// pays it, over 16 gateways whose cells the sharded engine splits into
// as many lanes as there are CPUs. A few simulated hours keep the run
// dominated by the radio medium and the event engine.
func simCityConfig(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(inputSeed("sim-city", seed))
	cfg.Nodes = 20_000
	cfg.Gateways = 16
	cfg.MaxDistanceM = 40_000
	cfg.Channels = 8
	cfg.Demodulators = 8
	cfg.Duration = 6 * simtime.Hour
	return cfg
}

// simYear is the paper's own regime: a small network over a whole
// simulated year on one lane, where the integration kernel, battery
// accounting, the BLA decisions and the forecaster do the work.
func simYearConfig(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(inputSeed("sim-year", seed))
	cfg.Nodes = 100
	cfg.Duration = 365 * simtime.Day
	return cfg
}

func init() {
	register(workload{
		name:  "sim-city",
		full:  func(w *workerEnv) (*repResult, error) { return runSim(w, simCityConfig(w.seed), sim.RunOptions{}) },
		setup: func(w *workerEnv) (*repResult, error) { return setupSim(w, simCityConfig(w.seed)) },
	})
	register(workload{
		name: "sim-year",
		full: func(w *workerEnv) (*repResult, error) {
			return runSim(w, simYearConfig(w.seed), sim.RunOptions{Shards: 1})
		},
		setup: func(w *workerEnv) (*repResult, error) { return setupSim(w, simYearConfig(w.seed)) },
	})
}

func setupSim(w *workerEnv, cfg config.Scenario) (*repResult, error) {
	var err error
	setup := timed(w.ctx, "setup", func(context.Context) { _, err = sim.New(cfg, sim.Hooks{}) })
	if err != nil {
		return nil, err
	}
	return &repResult{SetupS: setup, WallS: setup, Ops: 1}, nil
}

// runSim times sim.New and RunOpt, then checks and digests the
// per-node results. A traced repetition also attaches an obs recorder
// (its counters are the per-layer counts; sampling is spread to the
// horizon so timelines cost almost nothing) — obs never changes the
// simulated results, so the digest is the same either way.
func runSim(w *workerEnv, cfg config.Scenario, opt sim.RunOptions) (*repResult, error) {
	var hooks sim.Hooks
	var rec *obs.Recorder
	if w.traced {
		rec = obs.New(obs.Manifest{Tool: "perfbench"}, cfg.Duration)
		hooks.Obs = rec
	}
	var s *sim.Simulation
	var res *sim.Result
	var err error
	setup := timed(w.ctx, "setup", func(context.Context) { s, err = sim.New(cfg, hooks) })
	if err != nil {
		return nil, fmt.Errorf("sim.New: %w", err)
	}
	cpu0 := cpuSeconds()
	run := timed(w.ctx, "run", func(context.Context) { res, err = s.RunOpt(opt) })
	cpuRun := cpuSeconds() - cpu0
	if err != nil {
		return nil, fmt.Errorf("RunOpt: %w", err)
	}
	r := &repResult{SetupS: setup, WallS: setup + run, Ops: 1}
	phase(w.ctx, "check", func(context.Context) {
		r.Checks = checkSimResult(cfg, res)
		r.Digest, err = digestJSON(res)
	})
	if err != nil {
		return nil, err
	}

	nodeDays := float64(cfg.Nodes) * cfg.Duration.Seconds() / 86400
	lanes := s.ShardsUsed()
	r.Specific = map[string]float64{
		"sim.node_days_per_s": nodeDays / run,
		"sim.run_s":           run,
		"sim.lanes.busy_frac": cpuRun / (run * float64(lanes)),
	}
	if w.traced {
		var decisions, dropped, hits int64
		for i, nr := range res.Nodes {
			decisions += nr.Stats.Generated
			dropped += nr.Stats.NeverSent
			if bla, ok := s.Nodes()[i].Proto.(*mac.BLA); ok {
				hits += bla.TableHits()
			}
		}
		c := func(name string) float64 { return float64(rec.Counter(name).Value()) }
		r.Counts = map[string]float64{
			"sim.engine.events":       c("engine.events_executed"),
			"sim.medium.uplinks":      c("medium.uplinks"),
			"sim.medium.decoded_frac": ratio(c("medium.uplinks_decoded"), c("medium.uplinks")),
			"sim.lanes.count":         float64(lanes),
			"mac.decisions":           float64(decisions),
			"mac.drop_frac":           ratio(float64(dropped), float64(decisions)),
			"mac.table_hit_frac":      ratio(float64(hits), float64(decisions)),
			"netserver.packets":       c("netserver.packets_ingested"),
			"netserver.reports":       c("netserver.reports_ingested"),
			"netserver.recomputes":    c("netserver.recomputes"),
		}
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkSimResult checks invariants every run must satisfy, whatever the
// seed: one result per node, state of charge within [0, 1], no more
// deliveries than generated packets, and traffic at all.
func checkSimResult(cfg config.Scenario, res *sim.Result) []string {
	var bad []string
	if len(res.Nodes) != cfg.Nodes {
		bad = append(bad, fmt.Sprintf("%d node results, want %d", len(res.Nodes), cfg.Nodes))
	}
	var generated int64
	for _, n := range res.Nodes {
		generated += n.Stats.Generated
		if !(n.FinalSoC >= 0 && n.FinalSoC <= 1) {
			bad = append(bad, fmt.Sprintf("node %d: final SoC %v outside [0, 1]", n.ID, n.FinalSoC))
		}
		if n.Stats.Delivered > n.Stats.Generated {
			bad = append(bad, fmt.Sprintf("node %d: %d delivered > %d generated", n.ID, n.Stats.Delivered, n.Stats.Generated))
		}
		if len(bad) > 8 {
			break
		}
	}
	if generated == 0 {
		bad = append(bad, "no packets generated")
	}
	return bad
}

// digestJSON hashes a value's JSON encoding; encoding/json writes
// floats in their shortest round-trip form, so equal digests mean
// bit-identical numbers.
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := newDigest()
	h.add("json", data)
	return h.sum(), nil
}

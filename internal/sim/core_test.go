package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// soaOracleScenario builds one randomized-by-seed scenario with faults
// and enough variety (theta, initial SoC, node count) to drive every
// kernel branch: deep-discharge nights, full-accept charging runs,
// at-capacity spans, partial-minute steps at event times, and brownout
// interference with the armed spans. WuTTL cycles the stale-w_u phase
// of the MAC decision, and every fourth seed is a longer, smaller run
// whose estimators converge over several simulated days.
func soaOracleScenario(seed uint64) config.Scenario {
	cfg := config.Default().WithSeed(seed)
	cfg.Nodes = 12 + int(seed%3)*6
	cfg.Gateways = 4
	cfg.MaxDistanceM = 9000
	cfg.Channels = 2
	cfg.Demodulators = 2
	cfg.Duration = 2 * simtime.Day
	cfg.ForecastPrimeDays = 2
	// Cycle through theta caps: 1.0 exercises the clamp-moving edge the
	// at-capacity proof rejects, 0.5 the paper's H-50, 0.9 a battery
	// that reaches its cap mid-afternoon and arms the no-op span.
	cfg.Theta = []float64{1.0, 0.5, 0.9, 0.7}[seed%4]
	cfg.InitialSoC = []float64{0.5, 0.9, 0.3}[seed%3]
	cfg.Faults = faults.Config{
		DownlinkLoss: 0.05,
		UplinkLoss:   0.05,
		UplinkDup:    0.05,
		OutageStart:  20 * simtime.Hour,
		OutageLen:    2 * simtime.Hour,
		OutageEvery:  simtime.Day,
		BrownoutMTBF: 4 * simtime.Day,
		WuTTL:        []simtime.Duration{0, 6 * simtime.Hour, simtime.Day}[seed%3],
	}
	if seed%4 == 0 {
		cfg.Nodes = 8
		cfg.Duration = 8 * simtime.Day
	}
	return cfg
}

// TestSoACoreMatchesPointerCore pins the fused SoA integration kernel
// (integrateFast: at-capacity span skip, below-capacity full-accept
// span, hoisted per-minute balance) bit-for-bit against the generic
// reference path across randomized scenarios, with faults and obs
// recording on, at 1 and 4 shards. Every per-node float in the Result
// and the complete obs export must match byte for byte.
func TestSoACoreMatchesPointerCore(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		cfg := soaOracleScenario(seed)
		man := obs.Manifest{Experiment: "soa-oracle", Seed: seed, Nodes: cfg.Nodes}

		run := func(generic bool, shards int) (*Result, []byte) {
			debugGenericIntegrate = generic
			defer func() { debugGenericIntegrate = false }()
			rec := obs.New(man, 30*simtime.Minute)
			_, res := runOpt(t, cfg, rec, RunOptions{Shards: shards, Workers: 2})
			return res, obsBytes(t, rec)
		}

		refRes, refObs := run(true, 1)
		for _, c := range []struct {
			name    string
			generic bool
			shards  int
		}{
			{"fast/1shard", false, 1},
			{"fast/4shards", false, 4},
			{"generic/4shards", true, 4},
		} {
			res, out := run(c.generic, c.shards)
			if !reflect.DeepEqual(refRes, res) {
				t.Errorf("seed %d %s: result differs from generic single-shard run", seed, c.name)
			}
			if !bytes.Equal(refObs, out) {
				t.Errorf("seed %d %s: obs export differs from generic single-shard run", seed, c.name)
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d: kernel/reference divergence; stopping at first failing seed", seed)
		}
	}
}

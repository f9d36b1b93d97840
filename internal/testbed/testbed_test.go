package testbed_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/testbed"
)

// scenario is experiment.TestbedScenario, the paper's Sec. IV-B setup,
// at one seed.
func scenario(seed uint64, protocol config.ProtocolKind, theta float64) config.Scenario {
	return experiment.TestbedScenario(experiment.Options{Seed: seed}, protocol, theta)
}

// TestBrownoutRejoinsNeverReregisters pins the join-path contract the
// network server's dedup watermarks depend on, under both drivers of the
// node lifecycle. A node that browns out and comes back is the same
// battery with the same history, so it must be re-admitted through
// Rejoin (history and watermarks preserved), never through Register
// (battery-replacement semantics — watermarks and history reset, see
// netserver.Register). If a rejoin path ever drifted to Register, every
// retransmit already in flight at the brownout would be re-ingested as
// fresh data and w_u would silently fork from the node's real history.
func TestBrownoutRejoinsNeverReregisters(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(config.Scenario, *obs.Recorder) (*sim.Result, error)
	}{
		{"sim", func(cfg config.Scenario, rec *obs.Recorder) (*sim.Result, error) {
			s, err := sim.New(cfg, sim.Hooks{Obs: rec})
			if err != nil {
				return nil, err
			}
			return s.Run()
		}},
		{"testbed", testbed.RunObserved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scenario(3, config.ProtocolBLA, 1)
			cfg.Faults = faults.Config{BrownoutMTBF: 4 * simtime.Hour}
			rec := obs.New(obs.Manifest{Tool: "test"}, 0)
			res, err := tc.run(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			var brownouts int64
			for _, n := range res.Nodes {
				brownouts += n.Stats.Brownouts
			}
			if brownouts == 0 {
				t.Fatal("4h MTBF over 24h x 10 nodes produced no brownouts; assertion would be vacuous")
			}
			if registers := rec.Counter("netserver.registers").Value(); registers != int64(cfg.Nodes) {
				t.Errorf("netserver.registers = %d, want exactly one per node (%d): a live node was re-registered",
					registers, cfg.Nodes)
			}
			if rejoins := rec.Counter("netserver.rejoins").Value(); rejoins != brownouts {
				t.Errorf("netserver.rejoins = %d, want one per brownout (%d)", rejoins, brownouts)
			}
		})
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	cfg := scenario(3, config.ProtocolBLA, 1)
	cfg.Nodes = 0
	if _, err := testbed.Run(cfg); err == nil {
		t.Error("invalid scenario should fail")
	}
	eol := scenario(3, config.ProtocolBLA, 1)
	eol.RunToEoL = true
	if _, err := testbed.Run(eol); err == nil {
		t.Error("run-to-EoL should be rejected on the testbed")
	}
}

// TestTestbed24hInvariants checks the paper's testbed over seeds 1–10.
// The paper reports PRR 100 % for both protocols on its 10-node
// testbed. H-100 comes close on every node; LoRaWAN's ALOHA collisions
// on the single SF10 channel leave a few unlucky nodes well below that
// on some seeds, so its delivery is bounded per network and on average.
func TestTestbed24hInvariants(t *testing.T) {
	const seeds = 10
	for _, tc := range []struct {
		protocol config.ProtocolKind
		theta    float64
	}{
		{config.ProtocolLoRaWAN, 1},
		{config.ProtocolBLA, 1}, // the paper's H-100 testbed config
	} {
		t.Run(scenario(1, tc.protocol, tc.theta).ProtocolLabel(), func(t *testing.T) {
			t.Parallel()
			var netPRR metrics.Welford
			for seed := uint64(1); seed <= seeds; seed++ {
				res, err := testbed.Run(scenario(seed, tc.protocol, tc.theta))
				if err != nil {
					t.Fatalf("seed %d: Run: %v", seed, err)
				}
				if len(res.Nodes) != 10 {
					t.Fatalf("seed %d: nodes = %d, want 10", seed, len(res.Nodes))
				}
				var delivered, settled int64
				for _, n := range res.Nodes {
					s := n.Stats
					// 24 h at a 10-minute period: ~144 packets per node.
					if s.Generated < 130 || s.Generated > 150 {
						t.Errorf("seed %d node %d generated %d packets, want ~144", seed, n.ID, s.Generated)
					}
					if s.Delivered+s.Dropped > s.Generated || s.Generated-(s.Delivered+s.Dropped) > 1 {
						t.Errorf("seed %d node %d: packet accounting broken: %+v", seed, n.ID, s)
					}
					if tc.protocol == config.ProtocolBLA && s.PRR() < 0.95 {
						t.Errorf("seed %d node %d: H-100 PRR = %v, want >= 0.95", seed, n.ID, s.PRR())
					}
					if n.SF != lora.SF10 {
						t.Errorf("seed %d node %d SF = %v, want SF10", seed, n.ID, n.SF)
					}
					if n.Degradation.Total <= 0 {
						t.Errorf("seed %d node %d degradation should be positive after 24 h", seed, n.ID)
					}
					delivered += s.Delivered
					settled += s.Delivered + s.Dropped
				}
				prr := float64(delivered) / float64(settled)
				if prr < 0.85 {
					t.Errorf("seed %d: network PRR = %.3f, want >= 0.85", seed, prr)
				}
				netPRR.Add(prr)
			}
			if netPRR.Mean() < 0.9 {
				t.Errorf("network PRR averages %.3f over seeds 1-%d, want >= 0.9", netPRR.Mean(), seeds)
			}
		})
	}
}

// TestTestbedFig9Shape reproduces the qualitative claims of Fig. 9:
// H-100 has lower cycle aging than LoRaWAN after 24 hours, and LoRaWAN
// has lower latency.
func TestTestbedFig9Shape(t *testing.T) {
	lw, err := testbed.Run(scenario(3, config.ProtocolLoRaWAN, 1))
	if err != nil {
		t.Fatal(err)
	}
	h100, err := testbed.Run(scenario(3, config.ProtocolBLA, 1))
	if err != nil {
		t.Fatal(err)
	}

	var lwCycle, hCycle metrics.Welford
	var lwLat, hLat metrics.Welford
	for i := range lw.Nodes {
		lwCycle.Add(lw.Nodes[i].Degradation.Cycle)
		hCycle.Add(h100.Nodes[i].Degradation.Cycle)
		lwLat.Add(lw.Nodes[i].Stats.AvgLatencyDelivered().Seconds())
		hLat.Add(h100.Nodes[i].Stats.AvgLatencyDelivered().Seconds())
	}
	if hCycle.Mean() >= lwCycle.Mean() {
		t.Errorf("H-100 cycle aging %v should be below LoRaWAN %v (paper: 80%% lower)",
			hCycle.Mean(), lwCycle.Mean())
	}
	if lwLat.Mean() >= hLat.Mean() {
		t.Errorf("LoRaWAN latency %v s should be below H-100 %v s", lwLat.Mean(), hLat.Mean())
	}
}

// TestTestbedUsesWindows ensures the testbed drives the real MAC: BLA
// nodes on the testbed must spread their packets over more than one
// forecast window, as they do in the simulator.
func TestTestbedUsesWindows(t *testing.T) {
	res, err := testbed.Run(scenario(3, config.ProtocolBLA, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	hist := metrics.NewHistogram()
	for _, n := range res.Nodes {
		for _, b := range n.Stats.WindowHist.Buckets() {
			hist.Add(b)
		}
	}
	if len(hist.Buckets()) < 2 {
		t.Error("BLA on the testbed should select multiple windows")
	}
}

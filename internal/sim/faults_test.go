package sim

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/simtime"
)

// faultyScenario returns a fast scenario with a lossy control plane.
func faultyScenario() config.Scenario {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Faults = faults.Config{
		DownlinkLoss:    0.2,
		UplinkLoss:      0.1,
		UplinkDup:       0.1,
		OutageStart:     simtime.Day,
		OutageLen:       4 * simtime.Hour,
		OutageEvery:     simtime.Day,
		BrownoutMTBF:    simtime.Day,
		WuTTL:           2 * simtime.Hour,
		WuStaleFallback: 1,
	}
	return cfg
}

// TestFaultsDeterminism verifies a faulty run is reproducible: every
// fault draw comes from the plan's seed-derived per-node streams, never
// from shared or wall-clock state.
func TestFaultsDeterminism(t *testing.T) {
	cfg := faultyScenario()
	a := mustRun(t, cfg, Hooks{})
	b := mustRun(t, cfg, Hooks{})
	for i := range a.Nodes {
		sa, sb := a.Nodes[i].Stats, b.Nodes[i].Stats
		if sa.Generated != sb.Generated || sa.Delivered != sb.Delivered ||
			sa.Attempts != sb.Attempts || sa.TxEnergyJ != sb.TxEnergyJ ||
			sa.Brownouts != sb.Brownouts || sa.StaleWuDecisions != sb.StaleWuDecisions {
			t.Fatalf("node %d differs across identical faulty runs: %+v vs %+v", i, sa, sb)
		}
		if a.Nodes[i].Degradation.Total != b.Nodes[i].Degradation.Total {
			t.Fatalf("node %d degradation differs across identical faulty runs", i)
		}
	}
}

// TestFaultsGracefulDegradation verifies the lossy control plane hurts
// but never corrupts: fewer deliveries than the perfect plane, brownouts
// and stale-fallback decisions observed, and every per-node metric still
// finite and in range.
func TestFaultsGracefulDegradation(t *testing.T) {
	clean := mustRun(t, smallScenario(config.ProtocolBLA), Hooks{})
	faulty := mustRun(t, faultyScenario(), Hooks{})

	var cleanDelivered, faultyDelivered, brownouts, stale int64
	for i := range clean.Nodes {
		cleanDelivered += clean.Nodes[i].Stats.Delivered
		faultyDelivered += faulty.Nodes[i].Stats.Delivered
		brownouts += faulty.Nodes[i].Stats.Brownouts
		stale += faulty.Nodes[i].Stats.StaleWuDecisions
	}
	if faultyDelivered >= cleanDelivered {
		t.Errorf("faulty plane delivered %d >= clean %d", faultyDelivered, cleanDelivered)
	}
	if faultyDelivered == 0 {
		t.Error("faulty plane should still deliver some packets")
	}
	if brownouts == 0 {
		t.Error("MTBF of one day over 3 days x 15 nodes should brown out at least one node")
	}
	if stale == 0 {
		t.Error("daily 4h outages with a 2h TTL should force stale-fallback decisions")
	}
	for _, n := range faulty.Nodes {
		if math.IsNaN(n.Degradation.Total) || n.Degradation.Total < 0 || n.Degradation.Total >= 1 {
			t.Errorf("node %d: degradation %v out of range under faults", n.ID, n.Degradation.Total)
		}
		if n.FinalSoC < 0 || n.FinalSoC > 1 {
			t.Errorf("node %d: final SoC %v out of range under faults", n.ID, n.FinalSoC)
		}
		if prr := n.Stats.PRR(); math.IsNaN(prr) || prr < 0 || prr > 1 {
			t.Errorf("node %d: PRR %v out of range under faults", n.ID, prr)
		}
	}
}

// TestTotalOutageBlocksDelivery verifies a gateway that is down for the
// whole run delivers nothing, yet the nodes run to completion.
func TestTotalOutageBlocksDelivery(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Faults = faults.Config{OutageStart: 0, OutageLen: cfg.Duration + simtime.Day}
	res := mustRun(t, cfg, Hooks{})
	for _, n := range res.Nodes {
		if n.Stats.Delivered != 0 {
			t.Fatalf("node %d delivered %d packets through a dead gateway", n.ID, n.Stats.Delivered)
		}
		if n.Stats.Generated == 0 {
			t.Errorf("node %d stopped generating during the outage", n.ID)
		}
	}
}

// TestZeroFaultsNoFaultCounters verifies the zero-valued fault config
// leaves no trace: no plan is built, no brownouts, no stale decisions.
func TestZeroFaultsNoFaultCounters(t *testing.T) {
	cfg := smallScenario(config.ProtocolBLA)
	if cfg.Faults.Active() {
		t.Fatal("default scenario should have an inactive fault config")
	}
	res := mustRun(t, cfg, Hooks{})
	for _, n := range res.Nodes {
		if n.Stats.Brownouts != 0 || n.Stats.StaleWuDecisions != 0 {
			t.Fatalf("node %d has fault counters on a perfect control plane: %+v", n.ID, n.Stats)
		}
	}
}

// TestUplinkLossReducesDelivery isolates backhaul uplink loss: PHY
// success but no ingest must read as a lost packet to the node.
func TestUplinkLossReducesDelivery(t *testing.T) {
	clean := mustRun(t, smallScenario(config.ProtocolBLA), Hooks{})
	cfg := smallScenario(config.ProtocolBLA)
	cfg.Faults = faults.Config{UplinkLoss: 0.5}
	lossy := mustRun(t, cfg, Hooks{})
	var cleanDelivered, lossyDelivered int64
	for i := range clean.Nodes {
		cleanDelivered += clean.Nodes[i].Stats.Delivered
		lossyDelivered += lossy.Nodes[i].Stats.Delivered
	}
	if lossyDelivered >= cleanDelivered {
		t.Errorf("50%% uplink loss delivered %d >= clean %d", lossyDelivered, cleanDelivered)
	}
}

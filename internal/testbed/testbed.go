package testbed

import (
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Run executes the emulated testbed for the scenario: the simulator's
// own nodes, each stepped by its own goroutine under a fresh virtual
// Clock (sim.RunConcurrent). The paper's setup is
// experiment.TestbedScenario. Nodes that wake at the same virtual
// instant really race — for the channel, the gateway's demodulators and
// the ACK slot — so run-to-run metric totals may vary slightly, exactly
// as on the physical testbed.
func Run(cfg config.Scenario) (*sim.Result, error) { return RunObserved(cfg, nil) }

// RunObserved is Run with an observability recorder attached. Node
// timelines are sampled once per sampling cycle at the decision instant.
// Unlike the simulator's, testbed exports are NOT byte-reproducible:
// goroutine interleaving under the virtual clock varies run to run, as
// it would on physical hardware.
func RunObserved(cfg config.Scenario, rec *obs.Recorder) (*sim.Result, error) {
	s, err := sim.New(cfg, sim.Hooks{Obs: rec})
	if err != nil {
		return nil, err
	}
	return s.RunConcurrent(NewClock())
}

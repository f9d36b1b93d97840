package experiment

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/testbed"
	"repro/internal/utility"
)

// TestbedScenario returns the paper's Sec. IV-B setup: 10 nodes within
// 40 m of the gateway (the lab deployment, Fig. 10) with a 10-minute
// sampling period and 1-minute windows on one 125 kHz channel at SF10,
// 24 hours, with a real-battery emulation (~400 mAh) and hourly w_u
// dissemination (a 24 h experiment cannot wait a day).
func TestbedScenario(o Options, protocol config.ProtocolKind, theta float64) config.Scenario {
	cfg := config.Default().WithSeed(o.seed())
	cfg.Nodes = o.nodes(10)
	cfg.Protocol = protocol
	cfg.Theta = theta
	cfg.PeriodMin = 10 * simtime.Minute
	cfg.PeriodMax = 10 * simtime.Minute
	cfg.MaxDistanceM = 40
	cfg.FixedSF = lora.SF10
	cfg.Channels = 1
	cfg.Duration = o.duration(24 * simtime.Hour)
	cfg.ForecastPrimeDays = 2
	cfg.StartSpread = 5 * simtime.Second
	cfg.DegradationInterval = simtime.Hour
	cfg.BatteryCapacityJ = 5300
	return cfg
}

// Fig9 regenerates the testbed comparison (Fig. 9): battery degradation,
// retransmissions and latency of 10 emulated nodes over 24 hours, H-100
// vs LoRaWAN, on the concurrent virtual-time runtime.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		ID:    "fig9",
		Title: "Testbed (10 concurrent nodes, 24 h): H-100 vs LoRaWAN",
		Columns: []string{
			"metric", "LoRaWAN", "H-100",
		},
	}
	type outcome struct {
		deg, cyc, att, lat, prr metrics.Welford
		degVar                  float64
	}
	o = o.parallel()
	variants := []variant{
		{label: "LoRaWAN", protocol: config.ProtocolLoRaWAN, theta: 1},
		{label: "H-100", protocol: config.ProtocolBLA, theta: 1},
	}
	// Each testbed run already spawns one goroutine per node; the two
	// variants additionally fan out across the worker pool.
	outs, err := mapRuns(o, len(variants), func(i int) (outcome, error) {
		v := variants[i]
		cfg := TestbedScenario(o, v.protocol, v.theta)
		o.logf("fig9: testbed %s (%d goroutine nodes, %v)", v.label, cfg.Nodes, cfg.Duration)
		res, err := testbed.Run(cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("experiment: fig9 %s: %w", v.label, err)
		}
		var oc outcome
		var degs []float64
		for _, n := range res.Nodes {
			oc.deg.Add(n.Degradation.Total)
			oc.cyc.Add(n.Degradation.Cycle)
			oc.att.Add(n.Stats.AvgAttempts())
			oc.lat.Add(n.Stats.AvgLatencyDelivered().Seconds())
			oc.prr.Add(n.Stats.PRR())
			degs = append(degs, n.Degradation.Total)
		}
		oc.degVar = metrics.BoxOf(degs).Variance
		return oc, nil
	})
	if err != nil {
		return nil, err
	}
	row := func(name string, f func(outcome) string) {
		t.AddRow(name, f(outs[0]), f(outs[1]))
	}
	row("degradation mean (9a)", func(oc outcome) string { return fmt.Sprintf("%.3e", oc.deg.Mean()) })
	row("degradation variance (9a)", func(oc outcome) string { return fmt.Sprintf("%.3e", oc.degVar) })
	row("cycle aging mean", func(oc outcome) string { return fmt.Sprintf("%.3e", oc.cyc.Mean()) })
	row("avg TX attempts (9b)", func(oc outcome) string { return fmt.Sprintf("%.2f", oc.att.Mean()) })
	row("avg latency s (9c)", func(oc outcome) string { return fmt.Sprintf("%.1f", oc.lat.Mean()) })
	row("PRR", func(oc outcome) string { return fmt.Sprintf("%.3f", oc.prr.Mean()) })
	t.AddNote("paper Fig. 9: PRR 100%% for both; LoRaWAN higher degradation variance and RETX; H-100 higher latency, lower cycle aging")
	return t, nil
}

// TableI regenerates the system-overhead comparison. The paper measures
// Raspberry-Pi CPU/memory via psutil; the Go analogue reports the
// decision-path cost and protocol state of each MAC, which is what the
// paper's "low overhead" claim is about (see DESIGN.md substitutions).
func TableI(o Options) (*Table, error) {
	const windows = 40
	forecast := make([]float64, windows)
	estTx := make([]float64, windows)
	for i := range forecast {
		forecast[i] = float64(i%7) * 0.01
		estTx[i] = 0.035
	}

	aloha := mac.ALOHA{}
	alohaBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = aloha.DecideTx(0, windows, 1)
		}
	})

	bla, err := mac.NewBLA(mac.BLAConfig{
		Theta:           0.5,
		WeightB:         1,
		Beta:            0.3,
		Forecaster:      constantForecaster{perWindow: 0.02},
		Window:          simtime.Minute,
		MaxWindows:      60,
		SingleTxEnergyJ: 0.035,
		MaxAttempts:     8,
	})
	if err != nil {
		return nil, err
	}
	bla.OnDegradationUpdate(0, 0.7)
	blaBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bla.DecideTx(0, windows, 1)
		}
	})

	// Raw Algorithm 1 (selector only), the paper's O(|T| log |T|) core.
	sel, err := core.NewSelector(utility.Linear{}, 1)
	if err != nil {
		return nil, err
	}
	in := core.Inputs{
		StoredEnergy:          1,
		NormalizedDegradation: 0.7,
		ForecastGen:           forecast,
		EstTxEnergy:           estTx,
		MaxTxEnergy:           0.28,
	}
	selBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sel.Select(in); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Protocol state: history counters + estimator + selector scratch.
	blaState := int(unsafe.Sizeof(mac.BLA{})) +
		60*(9*4+4) + // retx history: counts[60][8+1] uint32 + selected
		3*windows*8 // selector scratch buffers
	forecasterState := 2 * 1440 * 8 // DiurnalEWMA profile + seen

	t := &Table{
		ID:      "tableI",
		Title:   "System overhead: per-decision cost and protocol state",
		Columns: []string{"metric", "LoRaWAN", "H-50", "overhead"},
	}
	t.AddRow("decision CPU (ns/op)",
		fmt.Sprintf("%d", alohaBench.NsPerOp()),
		fmt.Sprintf("%d", blaBench.NsPerOp()),
		fmt.Sprintf("+%d ns", blaBench.NsPerOp()-alohaBench.NsPerOp()))
	t.AddRow("decision allocs (/op)",
		fmt.Sprintf("%d", alohaBench.AllocsPerOp()),
		fmt.Sprintf("%d", blaBench.AllocsPerOp()),
		fmt.Sprintf("%+d", blaBench.AllocsPerOp()-alohaBench.AllocsPerOp()))
	t.AddRow("decision memory (B/op)",
		fmt.Sprintf("%d", alohaBench.AllocedBytesPerOp()),
		fmt.Sprintf("%d", blaBench.AllocedBytesPerOp()),
		fmt.Sprintf("%+d B", blaBench.AllocedBytesPerOp()-alohaBench.AllocedBytesPerOp()))
	t.AddRow("protocol state (B)", "0",
		fmt.Sprintf("%d", blaState),
		fmt.Sprintf("+%d B", blaState))
	t.AddRow("forecaster state (B)", "0",
		fmt.Sprintf("%d", forecasterState),
		fmt.Sprintf("+%d B", forecasterState))
	t.AddRow("Algorithm 1 alone (ns/op)", "-",
		fmt.Sprintf("%d", selBench.NsPerOp()), "-")
	t.AddNote("paper Table I measures psutil CPU/memory on a Raspberry Pi; this regeneration reports the decision path itself (see DESIGN.md)")
	t.AddNote("one decision per sampling period (>=16 min): CPU duty cycle is negligible on any MCU-class device")
	return t, nil
}

// constantForecaster is a minimal allocation-free forecaster for the
// overhead benchmark.
type constantForecaster struct {
	perWindow float64
}

func (c constantForecaster) ForecastWindows(_ simtime.Time, _ simtime.Duration, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c.perWindow
	}
	return out
}

func (c constantForecaster) Observe(simtime.Time, simtime.Time, float64) {}

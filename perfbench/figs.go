package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// figsRunners are the registry experiments figs-quick regenerates, in
// order. sweep and faults are deterministic per seed; fig9 runs the
// goroutine-per-node testbed, whose totals are documented as not
// reproducible, so only its shape is checked.
var figsRunners = []string{"sweep", "faults", "fig9"}

// figsOptions is `cmd/experiments -scale quick -nodes 50 -duration 480h
// -j <nproc>`: the quick scale cut to 50 nodes and 20 simulated days,
// so that several fresh processes fit in one run's budget.
func figsOptions(seed uint64) experiment.Options {
	return experiment.Options{
		Seed:        inputSeed("figs-quick", seed),
		Nodes:       50,
		Duration:    20 * simtime.Day,
		AgingFactor: 40,
		Workers:     runtime.NumCPU(),
	}
}

// figsSetup stands in for the cold construction the first quick-scale
// run pays: one sim.New of the quick-scale scenario in a fresh process,
// before the process-wide forecast priming cache holds anything. The
// registry runners construct their simulations internally, where the
// benchmark cannot time them, so this proxy runs only in set-up-only
// processes and never inside a full repetition.
func figsSetup(w *workerEnv) (float64, error) {
	opts := figsOptions(w.seed)
	cfg := config.Default().WithSeed(opts.Seed)
	cfg.Nodes = opts.Nodes
	cfg.Duration = opts.Duration
	var err error
	setup := timed(w.ctx, "setup", func(context.Context) { _, err = sim.New(cfg, sim.Hooks{}) })
	return setup, err
}

func init() {
	register(workload{
		name: "figs-quick",
		full: runFigs,
		setup: func(w *workerEnv) (*repResult, error) {
			setup, err := figsSetup(w)
			if err != nil {
				return nil, err
			}
			return &repResult{SetupS: setup, WallS: setup, Ops: 1}, nil
		},
	})
}

func runFigs(w *workerEnv) (*repResult, error) {
	opts := figsOptions(w.seed)
	r := &repResult{Specific: map[string]float64{}}
	tables := map[string][]*experiment.Table{}
	cpu0, t0 := cpuSeconds(), time.Now()
	for _, name := range figsRunners {
		e, ok := experiment.Find(name)
		if !ok {
			return nil, fmt.Errorf("experiment %q not registered", name)
		}
		r.Ops++
		var err error
		r.Specific["figs."+name+"_s"] = timed(w.ctx, "run", func(context.Context) { tables[name], err = e.Run(opts) })
		if err != nil {
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", name, err))
		}
	}
	r.WallS = time.Since(t0).Seconds()
	r.Specific["runner.busy_frac"] = (cpuSeconds() - cpu0) / (r.WallS * float64(opts.Workers))

	phase(w.ctx, "check", func(context.Context) {
		h := newDigest()
		for _, name := range []string{"sweep", "faults"} {
			for _, t := range tables[name] {
				var buf bytes.Buffer
				if err := t.Fprint(&buf); err != nil {
					r.Checks = append(r.Checks, fmt.Sprintf("%s: print: %v", t.ID, err))
				}
				h.add(t.ID, buf.Bytes())
			}
		}
		r.Digest = h.sum()
		r.Checks = append(r.Checks, checkFig9(tables["fig9"])...)
	})
	return r, nil
}

// checkFig9 checks the testbed table's shape: one table, the two
// protocol columns, every metric row present with numeric cells, and
// PRRs within (0, 1].
func checkFig9(tables []*experiment.Table) []string {
	if len(tables) != 1 || tables[0].ID != "fig9" {
		return []string{fmt.Sprintf("fig9: got %d tables, want one fig9 table", len(tables))}
	}
	t := tables[0]
	var bad []string
	if len(t.Columns) != 3 || t.Columns[1] != "LoRaWAN" || t.Columns[2] != "H-100" {
		bad = append(bad, fmt.Sprintf("fig9: columns %q", t.Columns))
	}
	if len(t.Rows) != 6 {
		bad = append(bad, fmt.Sprintf("fig9: %d rows, want 6", len(t.Rows)))
	}
	for _, row := range t.Rows {
		if len(row) != 3 {
			bad = append(bad, fmt.Sprintf("fig9: row %q has %d cells", row, len(row)))
			continue
		}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 {
				bad = append(bad, fmt.Sprintf("fig9: %s cell %q is not a non-negative number", row[0], cell))
			}
			if row[0] == "PRR" && !(v > 0 && v <= 1) {
				bad = append(bad, fmt.Sprintf("fig9: PRR %v outside (0, 1]", v))
			}
		}
	}
	return bad
}
